// Command bench is the repository's benchmark: seven workloads, eight
// end-to-end metrics and a traced run with a per-layer stage table. See
// README.md; BENCHMARK.json at the repository root records the contract.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
)

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	scale     string
	out       string
	outDir    string
	selfcheck bool
	compare   bool
	list      bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and end with its result line (default: the whole suite)")
	flag.Int64Var(&o.seed, "seed", 7, "schedule seed: zipf draws and operation order (the platforms are pinned)")
	flag.Float64Var(&o.seconds, "seconds", 12, "how long one run measures")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
	flag.StringVar(&o.scale, "scale", "full", "full or smoke (tiny cells, one pass)")
	flag.StringVar(&o.out, "o", "", "suite mode: also write every metric to this JSON file")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for trace-<workload>.json")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the suite twice and fail if the two disagree beyond the bounds")
	flag.BoolVar(&o.compare, "compare", false, "compare two suite files: -compare a.json b.json")
	flag.BoolVar(&o.list, "list", false, "list workloads and metrics")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o options, args []string) error {
	if o.scale != "full" && o.scale != "smoke" {
		return fmt.Errorf("unknown scale %q", o.scale)
	}
	smoke := o.scale == "smoke"
	ev := newEnv()
	switch {
	case o.list:
		for _, w := range workloads {
			fmt.Printf("workload %-12s %s\n", w.Name, w.Why)
		}
		for _, s := range endToEnd {
			fmt.Printf("end-to-end %-26s %-6s %s is better, bound %g%%\n", s.Name, s.Unit, s.Better, s.Bound*100)
		}
		for _, s := range perLayer {
			fmt.Printf("per-layer  %-26s %s\n", s.Name, s.Unit)
		}
		return nil
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two suite files")
		}
		a, err := readSuite(args[0])
		if err != nil {
			return err
		}
		b, err := readSuite(args[1])
		if err != nil {
			return err
		}
		if n, _ := compare(os.Stdout, a, b); n > 0 {
			return fmt.Errorf("%d end-to-end metrics worse beyond their bound", n)
		}
		return nil
	case o.workload != "":
		w, err := workloadByName(o.workload)
		if err != nil {
			return err
		}
		header(os.Stdout, ev, o.seed, o.seconds, o.scale)
		var r *runResult
		specs := endToEnd
		if o.trace != 0 {
			specs = perLayer
			r, err = traced(ctx, ev, w, o.seed, o.seconds, smoke, o.outDir)
		} else {
			r, err = measure(ctx, ev, w, o.seed, o.seconds, smoke)
		}
		if err != nil {
			return err
		}
		r.print(os.Stdout, specs)
		fmt.Println(r.resultLine())
		return nil
	}

	header(os.Stdout, ev, o.seed, o.seconds, o.scale)
	first, err := suite(ctx, ev, o, true)
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := first.write(o.out); err != nil {
			return err
		}
	}
	if o.selfcheck {
		second, err := suite(ctx, ev, o, false)
		if err != nil {
			return err
		}
		if n, c := compare(os.Stdout, first, second); n > 0 || c > 0 {
			return fmt.Errorf("selfcheck: between two sets of runs %d end-to-end metrics differ beyond their bound and %d counts differ", n, c)
		}
	}
	if len(first.Failures) > 0 {
		return fmt.Errorf("operations failed on %d workloads", len(first.Failures))
	}
	return nil
}

// suite runs every workload untraced, then traced.
func suite(ctx context.Context, ev env, o options, verbose bool) (*suiteResult, error) {
	host, _ := os.Hostname()
	smoke := o.scale == "smoke"
	s := &suiteResult{Machine: machineLabel(host), Go: runtime.Version(), NumCPU: ev.workers, Clients: ev.clients, Seed: o.seed, Seconds: o.seconds, Scale: o.scale,
		Workloads: map[string]map[string]metric{}, Failures: map[string][]failure{}}
	for i := range workloads {
		w := &workloads[i]
		e2e, err := measure(ctx, ev, w, o.seed, o.seconds, smoke)
		if err != nil {
			return nil, err
		}
		layer, err := traced(ctx, ev, w, o.seed, o.seconds, smoke, o.outDir)
		if err != nil {
			return nil, err
		}
		if verbose {
			e2e.print(os.Stdout, endToEnd)
			layer.print(os.Stdout, perLayer)
		}
		all := map[string]metric{}
		for k, v := range e2e.Metrics {
			all[k] = v
		}
		for k, v := range layer.Metrics {
			all[k] = v
		}
		s.Workloads[w.Name] = all
		if f := append(e2e.failures, layer.failures...); len(f) > 0 {
			s.Failures[w.Name] = f
		}
	}
	return s, nil
}
