// Command bcast-churn plays a deterministic churn trace against a scenario
// platform and reports how the three adaptation policies — keep the current
// broadcast tree, repair it locally, rebuild it from scratch — track the
// re-solved steady-state optimum as the platform evolves (link bandwidth
// drift, link failures and recoveries, node crashes and rejoins).
//
// The steady-state optimum is re-solved incrementally: one warm solver
// session carries the master LP and the accumulated cut pool across events
// (-cold-resolve restores per-event cold solves as the oracle). With the
// default flags the JSON report is byte-for-byte deterministic for a fixed
// (scenario, size, seed) triple.
//
// Examples:
//
//	bcast-churn -list
//	bcast-churn -scenario cluster-of-clusters -size 32 -seed 7
//	bcast-churn -scenario tiers -size 64 -events 100 -profile flaky-links -pretty
//	bcast-churn -scenario random-sparse -size 20 -cold-resolve -o churn.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	broadcast "repro"
)

// output is the CLI's JSON document: the trace context plus the full
// per-event report.
type output struct {
	Scenario string                 `json:"scenario"`
	Size     int                    `json:"size"`
	Seed     int64                  `json:"seed"`
	Nodes    int                    `json:"nodes"`
	Links    int                    `json:"links"`
	Trace    *broadcast.ChurnTrace  `json:"trace"`
	Report   *broadcast.ChurnReport `json:"report"`
}

func main() {
	var (
		scenario    = flag.String("scenario", "", "scenario family to generate (see -list)")
		size        = flag.Int("size", 0, "node count (0 = the family's smallest default size)")
		seed        = flag.Int64("seed", 1, "platform seed; the trace seed is derived from it")
		source      = flag.Int("source", 0, "broadcast source processor")
		events      = flag.Int("events", 0, "churn-trace length (0 = the family's default)")
		profile     = flag.String("profile", "", "churn profile override (empty = the family's default; see -list)")
		heuristic   = flag.String("heuristic", broadcast.LPGrowTree, "tree heuristic for the initial build and the rebuild policy")
		modelName   = flag.String("model", "one-port", "evaluation port model: one-port | one-port-uni | multi-port")
		coldResolve = flag.Bool("cold-resolve", false, "re-solve the optimum from scratch at every event (oracle for the warm session)")
		timings     = flag.Bool("timings", false, "record wall-clock timings (makes the JSON non-deterministic)")
		out         = flag.String("o", "", "write the JSON report to this file instead of stdout")
		pretty      = flag.Bool("pretty", false, "indent the JSON output")
		quiet       = flag.Bool("quiet", false, "suppress the summary on stderr")
		list        = flag.Bool("list", false, "list churn profiles and per-family defaults, then exit")
	)
	flag.Parse()

	if *list {
		listAll()
		return
	}
	if *scenario == "" {
		fmt.Fprintln(os.Stderr, "bcast-churn: -scenario is required (use -list to see the families)")
		os.Exit(2)
	}
	if err := run(*scenario, *size, *seed, *source, *events, *profile, *heuristic, *modelName,
		*coldResolve, *timings, *out, *pretty, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "bcast-churn:", err)
		os.Exit(1)
	}
}

// listAll prints the churn profiles and the per-family churn defaults.
func listAll() {
	fmt.Println("churn profiles:")
	for _, name := range broadcast.ChurnProfiles() {
		prof, err := broadcast.ChurnProfileByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bcast-churn:", err)
			os.Exit(1)
		}
		fmt.Printf("  %-14s %s\n", prof.Name, prof.Description)
	}
	fmt.Println("\nscenario families (churn profile, default trace length):")
	for _, name := range broadcast.ScenarioNames() {
		s, err := broadcast.ScenarioByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bcast-churn:", err)
			os.Exit(1)
		}
		fmt.Printf("  %-20s %-14s %3d events  (sizes %v)\n",
			s.Name, s.EffectiveChurnProfile(), s.EffectiveTraceEvents(), s.DefaultSizes)
	}
}

func run(scenario string, size int, seed int64, source, events int, profileName, heuristic, modelName string,
	coldResolve, timings bool, out string, pretty, quiet bool) error {
	s, err := broadcast.ScenarioByName(scenario)
	if err != nil {
		return err
	}
	if size <= 0 {
		size = s.DefaultSizes[0]
		for _, n := range s.DefaultSizes {
			if n < size {
				size = n
			}
		}
	}
	var evalModel broadcast.PortModel
	switch modelName {
	case "one-port":
		evalModel = broadcast.OnePort
	case "one-port-uni":
		evalModel = broadcast.OnePortUnidirectional
	case "multi-port":
		evalModel = broadcast.MultiPort
	default:
		return fmt.Errorf("unknown model %q (want one-port, one-port-uni or multi-port)", modelName)
	}
	profName := profileName
	if profName == "" {
		profName = s.EffectiveChurnProfile()
	}
	prof, err := broadcast.ChurnProfileByName(profName)
	if err != nil {
		return err
	}
	if events <= 0 {
		events = s.EffectiveTraceEvents()
	}

	p, err := s.Generate(size, seed)
	if err != nil {
		return err
	}
	trace, err := broadcast.GenerateChurnTrace(p, source, prof, events, broadcast.ChurnTraceSeed(seed))
	if err != nil {
		return err
	}
	cfg := broadcast.ChurnConfig{
		Heuristic:     heuristic,
		Model:         evalModel,
		ColdResolve:   coldResolve,
		RecordTimings: timings,
	}
	report, err := broadcast.RunChurn(p, source, trace, cfg)
	if err != nil {
		return err
	}

	doc := output{
		Scenario: scenario,
		Size:     size,
		Seed:     seed,
		Nodes:    p.NumNodes(),
		Links:    p.NumLinks(),
		Trace:    trace,
		Report:   report,
	}
	var data []byte
	if pretty {
		data, err = json.MarshalIndent(doc, "", "  ")
	} else {
		data, err = json.Marshal(doc)
	}
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out != "" {
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
	} else if _, err := os.Stdout.Write(data); err != nil {
		return err
	}

	if !quiet {
		fmt.Fprintf(os.Stderr, "churn: %s n=%d seed=%d profile=%s events=%d heuristic=%s\n",
			scenario, size, seed, trace.Profile, len(trace.Events), report.Heuristic)
		fmt.Fprintf(os.Stderr, "steady re-solves: %d warm, %d rebuilds, %d pivots (%d warm / %d cold)\n",
			report.LP.WarmResolves, report.LP.Rebuilds,
			report.LP.WarmPivots+report.LP.ColdPivots, report.LP.WarmPivots, report.LP.ColdPivots)
		for _, sum := range report.Summary {
			fmt.Fprintf(os.Stderr, "  %-8s ratio %.3f (min %.3f)  delivered %.1f  lost %.1f",
				sum.Policy, sum.MeanRatio, sum.MinRatio, sum.DeliveredSlices, sum.LostSlices)
			if sum.BrokenEvents > 0 {
				fmt.Fprintf(os.Stderr, "  broken %dx", sum.BrokenEvents)
			}
			if sum.Reattached > 0 {
				fmt.Fprintf(os.Stderr, "  reattached %d", sum.Reattached)
			}
			fmt.Fprintln(os.Stderr)
		}
	}
	return nil
}
