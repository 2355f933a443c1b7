// Command perfbench is the repository's end-to-end benchmark. It builds
// an in-process hpclog deployment on loopback, drives one seeded workload
// through the public SDK, checks the answers, and prints every metric
// with its unit and sample count. The last line of standard output is one
// JSON object for automated comparison; see README.md.
//
//	bash perfbench/run.sh --workload dashboard --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// gitCommit is stamped by run.sh when the checkout is a git repository.
var gitCommit = "unknown"

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // repository root
	work     string // scratch directory for stores and object tiers
	logf     func(format string, args ...any)
}

// result is what a workload hands back for printing.
type result struct {
	attempted int64
	failed    int64
	// wrong counts answers that failed a check (also counted in failed).
	wrong   int64
	checks  []string // one line per check performed
	metrics report   // end-to-end metrics (untraced run) or per-layer metrics (traced run)
	info    map[string]any
}

var workloads = map[string]func(context.Context, runConfig) (*result, error){
	"dashboard": func(ctx context.Context, cfg runConfig) (*result, error) { return runDashboard(ctx, cfg, false) },
	"archive":   func(ctx context.Context, cfg runConfig) (*result, error) { return runDashboard(ctx, cfg, true) },
	"live":      runLive,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: dashboard, archive or live")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the corpus and the request stream")
	fs.IntVar(&cfg.seconds, "seconds", 15, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.StringVar(&cfg.root, "root", ".", "repository root (holds BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload dashboard|archive|live, --seconds >= 1 and --trace 0|1")
		return 2
	}
	cfg.trace = trace == 1
	spec, err := loadSpec(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	build := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if cfg.work, err = os.MkdirTemp(build, "run-"); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)
	cfg.logf = func(format string, args ...any) {
		fmt.Fprintf(stderr, "perfbench: "+format+"\n", args...)
	}

	started := time.Now()
	res, err := wl(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	want := spec.EndToEnd
	if cfg.trace {
		want = spec.PerLayer
	}
	line, err := finalLine(res, want)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	prov := provenance(cfg)
	printReport(stdout, cfg, res, prov, time.Since(started))
	if err := writeDetail(build, cfg, res, prov); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// loadSpec reads the metric lists the final line must carry.
func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// finalLine renders the machine-readable result: exactly the metrics the
// spec lists for this mode, each with the unit the spec gives it.
func finalLine(res *result, want []specMetric) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(want))
	var errs []error
	for _, w := range want {
		m, ok := res.metrics.get(w.Name)
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s was not measured", w.Name))
		case m.Missing:
			errs = append(errs, fmt.Errorf("metric %s has too few samples (%d)", w.Name, m.N))
		case m.Unit != w.Unit:
			errs = append(errs, fmt.Errorf("metric %s is in %s, BENCHMARK.json says %s", w.Name, m.Unit, w.Unit))
		}
		metrics[w.Name] = value{Value: m.Value, Unit: m.Unit}
	}
	if err := errors.Join(errs...); err != nil {
		return "", err
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.wrong == 0 && len(res.checks) > 0, res.attempted, res.failed, metrics})
	return string(b), err
}

// printReport writes the human-readable report: provenance, checks, and
// every metric with unit and sample count.
func printReport(w io.Writer, cfg runConfig, res *result, prov map[string]any, wall time.Duration) {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d %s run (%.1fs wall)\n", cfg.workload, cfg.seed, cfg.seconds, mode, wall.Seconds())
	keys := make([]string, 0, len(prov))
	for k := range prov {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  provenance %-16s %v\n", k, prov[k])
	}
	for _, c := range res.checks {
		fmt.Fprintf(w, "  check %s\n", c)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d wrong=%d error_ratio=%.6f\n",
		res.attempted, res.failed, res.wrong, ratio(float64(res.failed), float64(res.attempted)))
	for _, m := range res.metrics.metrics {
		if m.Missing {
			fmt.Fprintf(w, "  %-36s %14s %-9s n=%d (withheld: fewer than %d samples beyond it)\n", m.Name, "-", m.Unit, m.N, minTail)
			continue
		}
		fmt.Fprintf(w, "  %-36s %14.4f %-9s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
}

// writeDetail saves the full result, provenance included, under
// .bench_build/results for later inspection.
func writeDetail(build string, cfg runConfig, res *result, prov map[string]any) error {
	dir := filepath.Join(build, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"provenance": prov, "attempted": res.attempted, "failed": res.failed, "wrong": res.wrong,
		"checks": res.checks, "metrics": res.metrics.metrics, "info": res.info,
	}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", cfg.workload, cfg.seed, cfg.trace)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
