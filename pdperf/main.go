// Command pdperf is the repository's benchmark: one command that runs a
// named workload against the engine's public functions, checks every
// answer, and prints its metrics by name and unit. See README.md.
//
//	bash pdperf/run.sh --workload click-warm --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// config is one run's settings. Sizes default per workload (see
// defaultSizes); tests shrink them.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string

	rows    int // rows of the generated table (ingest-mixed: the base)
	clicks  int // clicks in the drill-down session
	clients int // in-flight calls per click
	setups  int // set-ups timed; the median is setup_s

	appendRows int // ingest-mixed: rows per batch
	appendRate int // ingest-mixed: batches per second
	maxChunk   int // chunk size of every store (and so the ingest seal size)
}

// serial reports whether a run keeps one query in flight. click-cold's
// leaves then also take turns at the shared memory budget, in a fixed
// order, so that which loads are cold can repeat for a seed; with more
// clients, or leaves in parallel, the leaves race for the budget and the
// counts vary a little from run to run. click-warm's leaves share no
// budget, and one client alone makes its counts repeat.
func (c config) serial() bool { return c.clients == 1 }

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	e2e               []metric // BENCHMARK.json end_to_end, on every workload
	extra             []metric // end-to-end metrics that apply to this workload only
	layer             []metric // per-layer metrics (traced runs)
	info              map[string]any
	tr                *tracer
}

var workloads = map[string]func(cfg config) (*outcome, error){
	"click-warm":   runClickWarm,
	"click-cold":   runClickCold,
	"ingest-mixed": runIngestMixed,
}

func defaultSizes(cfg *config) {
	def := func(p *int, v int) {
		if *p <= 0 {
			*p = v
		}
	}
	switch cfg.workload {
	case "ingest-mixed":
		def(&cfg.rows, 100_000)
		def(&cfg.maxChunk, 10_000)
		def(&cfg.clicks, 160)
		cfg.clients = 1 // one closed-loop reader
	default:
		def(&cfg.rows, 200_000)
		def(&cfg.maxChunk, 5_000)
		def(&cfg.clicks, 400)
	}
	def(&cfg.clients, runtime.NumCPU())
	def(&cfg.setups, 5)
	def(&cfg.appendRows, 10)
	def(&cfg.appendRate, 500)
}

// gcPercent is the garbage collector's target for every run. The engine
// allocates heavily per query (partials, and on ingest-mixed the
// write-buffer freeze); at the default of 100 the collector's pacing added
// to the run-to-run variation (see README.md).
const gcPercent = 400

// busySteal is the host steal share above which a run warns that it
// measured a busy machine (see README.md).
const busySteal = 0.06

func main() {
	debug.SetGCPercent(gcPercent)
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "click-warm, click-cold or ingest-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long the measured loop runs")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs traced and prints the per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build/data", "scratch directory for store files (a run removes what it creates)")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fail("pdperf: -trace must be 0 or 1")
	}
	run, ok := workloads[cfg.workload]
	if !ok {
		fail(fmt.Sprintf("pdperf: unknown workload %q", cfg.workload))
	}
	defaultSizes(&cfg)
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fail(err.Error())
	}
	dir, err := os.MkdirTemp(cfg.dir, cfg.workload+"-")
	if err != nil {
		fail(err.Error())
	}
	cfg.dir = dir
	cpu0 := cpuTicks()
	out, err := run(cfg)
	if out != nil {
		steal := stealFrac(cpu0, cpuTicks())
		out.info["host_steal_frac"] = steal
		if steal > busySteal {
			fmt.Fprintf(os.Stderr, "pdperf: the host gave %.0f%% of CPU time to other guests during the run; its figures read slow\n", 100*steal)
		}
	}
	os.RemoveAll(dir)
	if err != nil {
		fail(err.Error())
	}
	if err := printResult(cfg, out); err != nil {
		fail(err.Error())
	}
	if out.failed != 0 {
		os.Exit(1)
	}
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(2)
}

// envelope describes the machine and the run, printed beside every result.
func envelope(cfg config, out *outcome) map[string]any {
	env := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"rows":       cfg.rows,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"git_rev":    gitRev(),
		"clients":    cfg.clients,
		"max_chunk":  cfg.maxChunk,
		"gc_percent": gcPercent,
	}
	for k, v := range out.info {
		env[k] = v
	}
	return env
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the machine-wide CPU time counters of /proc/stat (nil
// where there is none).
func cpuTicks() []int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var ticks []int64
	for _, f := range strings.Fields(line)[1:] {
		var v int64
		fmt.Sscan(f, &v)
		ticks = append(ticks, v)
	}
	return ticks
}

// stealFrac is the share of CPU time between two readings that the host
// gave to other guests: a run with a high figure measured a busy machine.
func stealFrac(a, b []int64) float64 {
	const steal = 7 // user nice system idle iowait irq softirq steal
	if len(a) <= steal || len(b) <= steal {
		return 0
	}
	var total int64
	for i := range a {
		total += b[i] - a[i]
	}
	return ratio(float64(b[steal]-a[steal]), float64(total))
}

// gitRev is the revision the binary was built from: the build's VCS stamp,
// else git, else "unknown" (a source export is not a git checkout).
func gitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

// printResult prints the envelope and every metric that applies, then, as
// the last line, the result object: the end-to-end metrics untraced, the
// per-layer metrics traced. The same metrics go to standard error as a
// table.
func printResult(cfg config, out *outcome) error {
	all := append(append([]metric(nil), out.e2e...), out.extra...)
	final := out.e2e
	if cfg.trace {
		all = append(all, out.layer...)
		final = out.layer
	}
	for _, m := range all {
		fmt.Fprintf(os.Stderr, "%-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	head, err := json.Marshal(map[string]any{"envelope": envelope(cfg, out), "report": jsonMetrics(all)})
	if err != nil {
		return err
	}
	res, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   jsonMetrics(final),
	})
	if err != nil {
		return err
	}
	fmt.Println(string(head))
	fmt.Println(string(res))
	return nil
}

func jsonMetrics(ms []metric) map[string]any {
	out := map[string]any{}
	for _, m := range ms {
		out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return out
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
