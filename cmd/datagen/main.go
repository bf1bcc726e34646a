// Command datagen emits the repository's generated data sets as JSON
// graphs for inspection or use with cmd/phom:
//
//	datagen -kind synthetic -m 200 -noise 10 -out dir/   # Sec. 6(2) workload
//	datagen -kind web -category store -pages 2000 -out dir/
//	datagen -kind large -nodes 100000 -deg 5 -out dir/   # serving-scale graph
//
// Synthetic workloads write G1 as pattern.json and each derived graph as
// data_<i>.json. Web archives write version_<i>.json plus the two
// skeletons of each version (skeleton1_<i>.json with α = 0.2,
// skeleton2_<i>.json with the top-20 rule). Large graphs (power-law
// degrees, one strongly connected core — the regime the SCC-condensed
// reachability index serves) write large.json plus a
// carved pattern_large.json ready for phomd smoke tests.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"graphmatch/internal/graph"
	"graphmatch/internal/syngen"
	"graphmatch/internal/webgen"
)

func main() {
	kind := flag.String("kind", "synthetic", "synthetic | web")
	out := flag.String("out", ".", "output directory")
	seed := flag.Int64("seed", 1, "random seed")
	// Synthetic options.
	m := flag.Int("m", 100, "pattern size m (synthetic)")
	noise := flag.Float64("noise", 10, "noise percent (synthetic)")
	numData := flag.Int("graphs", 15, "number of data graphs (synthetic)")
	// Web options.
	category := flag.String("category", "store", "store | organization | newspaper (web)")
	pages := flag.Int("pages", 0, "pages per version, 0 = category default (web)")
	versions := flag.Int("versions", 11, "archive length (web)")
	// Large options.
	nodes := flag.Int("nodes", 100000, "graph size (large)")
	deg := flag.Int("deg", 5, "average out-degree (large)")
	labels := flag.Int("labels", 2000, "label universe size (large)")
	core := flag.Float64("core", 0.9, "strongly connected core fraction (large)")
	patSize := flag.Int("pattern-size", 12, "nodes in the carved pattern (large)")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	switch *kind {
	case "synthetic":
		w := syngen.Generate(syngen.Config{M: *m, NoisePercent: *noise, NumData: *numData, Seed: *seed})
		write(*out, "pattern.json", w.G1)
		for i, g2 := range w.G2s {
			write(*out, fmt.Sprintf("data_%d.json", i), g2)
		}
		fmt.Printf("wrote pattern (%s) and %d data graphs to %s\n", w.G1, len(w.G2s), *out)
	case "web":
		var cat webgen.Category
		switch *category {
		case "store":
			cat = webgen.Store
		case "organization":
			cat = webgen.Organization
		case "newspaper":
			cat = webgen.Newspaper
		default:
			fatal(fmt.Errorf("unknown -category %q", *category))
		}
		arch := webgen.Generate(webgen.Config{Category: cat, Pages: *pages, Versions: *versions, Seed: *seed})
		for i, g := range arch.Versions {
			write(*out, fmt.Sprintf("version_%d.json", i), g)
			write(*out, fmt.Sprintf("skeleton1_%d.json", i), webgen.Skeleton(g, 0.2))
			write(*out, fmt.Sprintf("skeleton2_%d.json", i), webgen.TopKSkeleton(g, 20))
		}
		fmt.Printf("wrote %d versions (with skeletons) of a %s site to %s\n",
			len(arch.Versions), cat, *out)
	case "large":
		g := syngen.GenerateLarge(syngen.LargeConfig{
			Nodes: *nodes, AvgDeg: *deg, Labels: *labels,
			CoreFraction: *core, Seed: *seed,
		})
		write(*out, "large.json", g)
		write(*out, "pattern_large.json", syngen.CarvePattern(g, *patSize, *seed+1))
		fmt.Printf("wrote large graph (%s) and a %d-node pattern to %s\n", g, *patSize, *out)
	default:
		fatal(fmt.Errorf("unknown -kind %q", *kind))
	}
}

func write(dir, name string, g *graph.Graph) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := g.WriteJSON(f); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}
