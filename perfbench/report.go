package main

import (
	"net/http"
	"time"
)

// q0 is quantile, with 0 for no samples.
func q0(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, q)
}

// primaryLats are the successful latencies of the workload's primary
// operation class among ss.
func (r *runner) primaryLats(ss []*sample) []float64 {
	var out []float64
	for _, s := range ss {
		if s.op.write == (r.w.writes != nil) && s.ok() {
			out = append(out, ms(s.latency()))
		}
	}
	return out
}

// layerMetrics assembles the per-layer metrics of a traced run: HTTP
// and harness figures from the traced open loop, server-side figures
// from /metrics deltas around it, and layer self times from the
// in-process replay.
func (r *runner) layerMetrics(light, untraced, traced []*sample, wall time.Duration, before, after scrape, tr *tracer, rep *replayReport) map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	self := tr.selfTimes("replay")
	l := rep.l
	d := func(family string) float64 { return delta(before, after, family) }

	var overhead, late []float64
	var refused, errs5xx, okWrites float64
	for _, s := range traced {
		switch {
		case s.status == http.StatusTooManyRequests:
			refused++
		case s.status >= 500:
			errs5xx++
		}
		if s.op.write && s.ok() {
			okWrites++
		}
		if el, ok := serverElapsedMS(s); ok {
			overhead = append(overhead, ms(s.end.Sub(s.sent))-el)
		}
		if s.idle {
			late = append(late, ms(s.late))
		}
	}
	set("httpapi.overhead_ms", q0(overhead, 0.5), "ms")
	set("httpapi.decode_us", self["httpapi.decode"].perOpMS()*1000, "us")
	set("httpapi.encode_us", self["httpapi.encode"].perOpMS()*1000, "us")
	set("httpapi.refused", refused, "count")
	set("httpapi.errors_5xx", errs5xx, "count")

	wait := histogramDelta(before, after, "phomd_engine_task_wait_seconds")
	run := histogramDelta(before, after, "phomd_engine_task_run_seconds")
	set("engine.queue_wait_p50_ms", wait.quantile(0.5)*1000, "ms")
	set("engine.queue_wait_p99_ms", wait.quantile(0.99)*1000, "ms")
	set("engine.run_ms", run.mean()*1000, "ms")
	set("engine.busy_frac", frac(run.sum, after.counter("phomd_engine_workers")*wall.Seconds()), "frac")
	set("engine.shed", d("phomd_engine_shed_total"), "count")
	set("engine.coalesced", d("phomd_engine_coalesced_total"), "count")
	set("engine.tasks_per_search", frac(d("phomd_engine_requests_total"), d("phomd_search_requests_total")), "count")

	hits, misses := d("phomd_catalog_closure_hits_total"), d("phomd_catalog_closure_misses_total")
	incr, rebuild := d("phomd_catalog_patch_incremental_total"), d("phomd_catalog_patch_rebuild_total")
	set("catalog.resolve_ms", self["catalog.resolve"].perOpMS(), "ms")
	set("catalog.content_sets_ms", self["catalog.content_sets"].perOpMS(), "ms")
	set("catalog.hit_rate", frac(hits, hits+misses), "frac")
	set("catalog.evictions", d("phomd_catalog_closure_evictions_total"), "count")
	set("catalog.closure_build_s", d("phomd_catalog_closure_build_seconds_total"), "s")
	set("catalog.apply_ms", self["catalog.apply"].perOpMS(), "ms")
	set("catalog.incremental_frac", frac(incr, incr+rebuild), "frac")
	set("catalog.patches_per_commit", frac(okWrites, incr+rebuild), "count")
	set("catalog.resident_mb", after.counter("phomd_catalog_resident_bytes")/1e6, "MB")

	reads := float64(rep.reads)
	set("sim.build_ms", self["sim.build"].perOpMS(), "ms")
	set("sim.pattern_shingle_ms", frac(ms(l.shingleTime), reads), "ms")
	set("sim.pairs_scored", frac(float64(l.pairsScored), reads), "count")
	set("sim.pairs_kept_frac", frac(float64(l.pairsKept), float64(l.pairsScored)), "frac")
	set("sim.matrix_mb", frac(l.matrixBytes, float64(l.builds))/1e6, "MB")
	set("core.match_ms", self["core.match"].perOpMS(), "ms")

	set("search.stage1_ms", self["search.stage1"].perOpMS(), "ms")
	set("search.candidates", histogramDelta(before, after, "phomd_search_candidates").mean(), "count")
	set("search.prune_rate", histogramDelta(before, after, "phomd_search_prune_ratio").mean(), "frac")
	set("search.fold_us", self["search.fold"].perOpMS()*1000, "us")
	set("search.summary_build_s", rep.summaryBuild.Seconds(), "s")

	set("store.append_ms", self["store.append"].perOpMS(), "ms")
	set("store.fsync_p50_ms", q0(l.fsyncs, 0.5), "ms")
	set("store.fsync_p99_ms", q0(l.fsyncs, 0.99), "ms")
	set("store.snapshots", d("phomd_store_snapshots_total"), "count")
	set("store.snapshot_s", histogramDelta(before, after, "phomd_store_snapshot_seconds").mean(), "s")

	set("bench.late_p99_ms", q0(late, 0.99), "ms")
	overheadFrac := 0.0
	if u, t := r.primaryLats(untraced), r.primaryLats(traced); len(u) > 0 && len(t) > 0 {
		overheadFrac = quantile(t, 0.5)/quantile(u, 0.5) - 1
	}
	set("bench.trace_overhead_frac", overheadFrac, "frac")

	r.replayChecks(light, self, rep)
	return m
}

// replayChecks gates the layer replay: its per-operation sum of the
// worker-side calls must agree with the server-reported time of the
// same operation sequence sent at light load, and it must reproduce
// the measured split.
func (r *runner) replayChecks(light []*sample, self map[string]selfTime, rep *replayReport) {
	server := map[string][]float64{}
	for _, s := range light {
		if el, ok := serverElapsedMS(s); ok {
			server[s.op.class()] = append(server[s.op.class()], el)
		}
	}
	for _, class := range []string{"match/label", "match/content", "search"} {
		sv, rp := server[class], rep.readEngineMS[class]
		if len(rp) == 0 {
			continue
		}
		if len(sv) == 0 {
			r.linef("replay check: %s per-operation sum not compared (no successful reads served)", class)
			continue
		}
		replayMS := median(rp)
		if class == "search" {
			// The server fans a search's candidates out over its
			// workers; the replay runs them one after another.
			replayMS /= connections
		}
		ratio := replayMS / median(sv)
		r.linef("replay check: %s per-operation sum %.3f ms vs server-reported %.3f ms (ratio %.2f)",
			class, replayMS, median(sv), ratio)
		if !(ratio >= 0.5 && ratio <= 2) {
			r.gates.fail("replay %s per-operation sum %.3f ms disagrees with server-reported %.3f ms",
				class, replayMS, median(sv))
		}
	}

	var total time.Duration
	top, topName := time.Duration(0), ""
	for name, st := range self {
		if name == "bench.op" {
			continue
		}
		total += st.total
		if st.total > top {
			top, topName = st.total, name
		}
	}
	switch r.w.name {
	case "match-label":
		share := frac(float64(self["core.match"].total), float64(total))
		r.linef("replay check: core.match is %.1f%% of layer self time", share*100)
		if share < 0.5 {
			r.gates.fail("replay: core.match is %.1f%% of layer self time, expected to dominate", share*100)
		}
	case "search-content":
		r.linef("replay check: largest layer self time is %s", topName)
		if topName != "sim.build" {
			r.gates.fail("replay: largest layer self time is %s, expected sim.build", topName)
		}
	}
}
