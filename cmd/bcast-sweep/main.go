// Command bcast-sweep runs the scenario sweep engine: it generates platforms
// from the named scenario families of the registry, evaluates every
// requested heuristic on each of them (throughput, relative performance
// against the one-port MTP optimum, optional wall time), and emits the full
// report as JSON. With the default flags the JSON output is byte-for-byte
// deterministic for a given seed.
//
// Examples:
//
//	bcast-sweep -list
//	bcast-sweep -scenarios all -reps 3 -seed 7
//	bcast-sweep -scenarios star,chain,tiers -sizes 16,32 -heuristics one-port
//	bcast-sweep -scenarios cluster-of-clusters -model multi-port -timings -pretty
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	broadcast "repro"
)

func main() {
	var (
		scenarioList = flag.String("scenarios", "all", "comma-separated scenario names or \"all\"")
		sizeList     = flag.String("sizes", "", "comma-separated node counts (empty = each scenario's defaults)")
		heurList     = flag.String("heuristics", "all", "comma-separated heuristic names, \"all\", \"one-port\" or \"multi-port\"")
		reps         = flag.Int("reps", 3, "platforms generated per (scenario, size) cell")
		seed         = flag.Int64("seed", 1, "base seed (per-platform seeds are derived from it)")
		source       = flag.Int("source", 0, "broadcast source processor")
		modelName    = flag.String("model", "one-port", "evaluation port model: one-port | one-port-uni | multi-port")
		workers      = flag.Int("workers", 0, "number of parallel workers (0 = all CPUs)")
		packTrees    = flag.Int("pack", 0, "decompose the optimal edge rates into a weighted packing of at most this many broadcast trees (0 = off); adds the packed throughput, tree count and k-tree vs single-tree gain to every run")
		churn        = flag.Bool("churn", false, "also play every platform through its family's churn trace (keep/repair/rebuild vs re-solved optimum)")
		churnEvents  = flag.Int("churn-events", 0, "churn-trace length (0 = per-family defaults; see -list)")
		churnProfile = flag.String("churn-profile", "", "churn profile override (empty = per-family defaults; see -list)")
		churnHeur    = flag.String("churn-heuristic", "", "tree heuristic driven through the churn traces (default lp-grow-tree)")
		timings      = flag.Bool("timings", false, "record wall-clock timings (makes the JSON non-deterministic)")
		out          = flag.String("o", "", "write the JSON report to this file instead of stdout")
		pretty       = flag.Bool("pretty", false, "indent the JSON output")
		quiet        = flag.Bool("quiet", false, "suppress the progress and summary output on stderr")
		list         = flag.Bool("list", false, "list the registered scenario families and exit")
	)
	flag.Parse()

	if *list {
		for _, name := range broadcast.ScenarioNames() {
			s, err := broadcast.ScenarioByName(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bcast-sweep:", err)
				os.Exit(1)
			}
			large := ""
			if len(s.LargeSizes) > 0 {
				large = fmt.Sprintf(", large sizes %v", s.LargeSizes)
			}
			fmt.Printf("%-20s %s (min size %d, default sizes %v%s; churn %s, %d events)\n",
				s.Name, s.Description, s.MinSize, s.DefaultSizes, large, s.EffectiveChurnProfile(), s.EffectiveTraceEvents())
		}
		fmt.Println("\nchurn profiles (for -churn-profile):")
		for _, name := range broadcast.ChurnProfiles() {
			prof, err := broadcast.ChurnProfileByName(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bcast-sweep:", err)
				os.Exit(1)
			}
			fmt.Printf("  %-14s %s\n", prof.Name, prof.Description)
		}
		return
	}

	if err := run(*scenarioList, *sizeList, *heurList, *reps, *seed, *source, *modelName, *workers, *packTrees,
		*churn, *churnEvents, *churnProfile, *churnHeur, *timings, *out, *pretty, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "bcast-sweep:", err)
		os.Exit(1)
	}
}

func run(scenarioList, sizeList, heurList string, reps int, seed int64, source int, modelName string, workers int, packTrees int,
	churn bool, churnEvents int, churnProfile, churnHeur string, timings bool, out string, pretty, quiet bool) error {
	cfg := broadcast.SweepConfig{
		Repetitions:    reps,
		Seed:           seed,
		Source:         source,
		Workers:        workers,
		PackTrees:      packTrees,
		Churn:          churn,
		ChurnEvents:    churnEvents,
		ChurnProfile:   churnProfile,
		ChurnHeuristic: churnHeur,
		RecordTimings:  timings,
	}

	if scenarioList != "all" {
		cfg.Scenarios = splitList(scenarioList)
	}
	var err error
	if cfg.Sizes, err = parseSizes(sizeList); err != nil {
		return err
	}
	switch heurList {
	case "all":
	case "one-port":
		cfg.Heuristics = broadcast.OnePortHeuristics()
	case "multi-port":
		cfg.Heuristics = broadcast.MultiPortHeuristics()
	default:
		cfg.Heuristics = splitList(heurList)
	}
	switch modelName {
	case "one-port":
		cfg.EvalModel = broadcast.OnePort
	case "one-port-uni":
		cfg.EvalModel = broadcast.OnePortUnidirectional
	case "multi-port":
		cfg.EvalModel = broadcast.MultiPort
	default:
		return fmt.Errorf("unknown model %q (want one-port, one-port-uni or multi-port)", modelName)
	}
	if !quiet {
		cfg.OnResult = func(r broadcast.SweepRun) {
			if r.Error != "" {
				fmt.Fprintf(os.Stderr, "%-20s n=%-4d rep=%d %-22s ERROR %s\n", r.Scenario, r.Size, r.Rep, r.Heuristic, r.Error)
				return
			}
			fmt.Fprintf(os.Stderr, "%-20s n=%-4d rep=%d %-22s ratio %.3f\n", r.Scenario, r.Size, r.Rep, r.Heuristic, r.Ratio)
		}
	}

	report, err := broadcast.RunSweep(cfg)
	if err != nil {
		return err
	}

	var data []byte
	if pretty {
		data, err = json.MarshalIndent(report, "", "  ")
	} else {
		data, err = json.Marshal(report)
	}
	if err != nil {
		return err
	}
	data = append(data, '\n')

	if out != "" {
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "wrote %s (%d runs)\n", out, report.Meta.TotalRuns)
		}
	} else {
		if _, err := os.Stdout.Write(data); err != nil {
			return err
		}
	}
	if !quiet {
		fmt.Fprintln(os.Stderr)
		fmt.Fprint(os.Stderr, report.Format())
	}
	return nil
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var sizes []int
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil || n < 2 {
			return nil, fmt.Errorf("invalid size %q", part)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}
