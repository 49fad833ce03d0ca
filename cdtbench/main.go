// Command cdtbench is the repository's benchmark. It drives cdtserve
// in-process — requests go straight into server.New(...).Handler() with
// a reusable response writer, so no socket, client library or response
// decoding sits inside a timed call — and times the training stack
// through the root cdt API in a traced run. Each run executes one
// workload and ends with one JSON line: with -trace 0 the end-to-end
// metrics, with -trace 1 the per-layer metrics of a traced run (see
// NOTES.md). End-to-end times are scaled to a reference host speed by a
// fixed probe timed between slices of the run (see probeHost), because
// on a shared host the program's wall time drifts with the neighbours'
// load by more than any bound a regression check could use.
//
// Usage, from the repository root:
//
//	bash cdtbench/run.sh --workload batch-plain --seed 1 --seconds 30 --trace 0
//	bash cdtbench/run.sh --workload all --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"batch-plain", "batch-pyramid", "stream-push"}

// endToEndMetrics are the metrics a -trace 0 run reports, with units.
var endToEndMetrics = []metric{
	{"setup_s", 0, "s"},
	{"latency_p50_ms", 0, "ms"},
	{"latency_p90_ms", 0, "ms"},
	{"throughput_points_per_s", 0, "points/s"},
	{"cpu_ms_per_op", 0, "ms"},
	{"peak_rss_mb", 0, "MiB"},
}

// perLayerMetrics are the metrics a -trace 1 run reports. A layer a
// workload does not run reports 0. Quantities that describe the input
// or the model rather than how fast a layer runs (bytes per request,
// windows and detections per series, rules per model, trials per
// search, cache hit ratios, fire rate, session working set) are printed
// as properties beside the metrics and are not in this list.
var perLayerMetrics = []metric{
	{"server.self_us_per_op", 0, "us"},
	{"server.self_ns_per_point", 0, "ns"},
	{"server.response_bytes_per_op", 0, "B"},
	{"sessions.push_us_per_op", 0, "us"},
	{"sessions.self_us_per_op", 0, "us"},
	{"sessions.churn_us_per_op", 0, "us"},
	{"cdt.detect_us_per_series", 0, "us"},
	{"cdt.score_us_per_series", 0, "us"},
	{"cdt.render_us_per_series", 0, "us"},
	{"cdt.stream_push_ns_per_point", 0, "ns"},
	{"timeseries.normalize_us_per_series", 0, "us"},
	{"pattern.label_us_per_series", 0, "us"},
	{"engine.sweep_us_per_series", 0, "us"},
	{"engine.step_ns_per_point", 0, "ns"},
	{"fusion.resample_us_per_series", 0, "us"},
	{"fusion.scale_detect_us_per_series", 0, "us"},
	{"fusion.self_us_per_series", 0, "us"},
	{"corpus.build_ms_per_op", 0, "ms"},
	{"core.fit_ms_per_trial", 0, "ms"},
	{"quality.evaluate_ms_per_trial", 0, "ms"},
	{"bayesopt.surrogate_ms_per_op", 0, "ms"},
	{"runtime.alloc_kb_per_op", 0, "KiB"},
	{"runtime.allocs_per_op", 0, "count"},
	{"runtime.gc_cpu_share", 0, "ratio"},
	{"runtime.sched_latency_p90_us", 0, "us"},
	{"client.us_per_op", 0, "us"},
	{"latency_p99_ms", 0, "ms"},
	{"latency_samples", 0, "count"},
	{"overhead.setup_s", 0, "s"},
	{"overhead.latency_p50_ms", 0, "ms"},
	{"overhead.latency_p90_ms", 0, "ms"},
	{"overhead.throughput_points_per_s", 0, "points/s"},
	{"overhead.cpu_ms_per_op", 0, "ms"},
	{"overhead.peak_rss_mb", 0, "MiB"},
}

// setupsPerRun is how many times a run sets its workload up; setup_s
// is the median of the quieter ones (see quiet), because one set-up is
// short enough for a GC cycle, a page-fault burst or a moment of host
// steal to move it by a quarter.
const setupsPerRun = 11

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string // model directories and span files
	setups   int    // set-ups per run; setup_s is their median
	sizes    sizes
}

// sizes sizes every workload.
type sizes struct {
	batch  batchSizes
	stream streamSizes
	train  trainSizes
}

var defaultSizes = sizes{batch: defaultBatchSizes, stream: defaultStreamSizes, train: defaultTrainSizes}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cdtbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{setups: setupsPerRun, sizes: defaultSizes}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run, or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for model files and span output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if cfg.workload == "all" {
		return runAll(cfg, trace, stdout, stderr)
	}
	res, err := runWorkload(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "cdtbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "cdtbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func setup(cfg config, rec *recorder) (workload, int, error) {
	switch cfg.workload {
	case "batch-plain", "batch-pyramid":
		w, failed, err := setupBatch(cfg, rec, cfg.workload == "batch-pyramid")
		if err != nil {
			return nil, 0, err
		}
		return w, failed, nil
	case "stream-push":
		w, failed, err := setupStream(cfg, rec)
		if err != nil {
			return nil, 0, err
		}
		return w, failed, nil
	}
	return nil, 0, fmt.Errorf("unknown workload %q (want one of %v or all)", cfg.workload, workloadNames)
}

// timedSetup runs one set-up from a collected heap and times it to its
// first verified op. It also returns the host probe's time right after
// it and the host's steal share over it.
func timedSetup(cfg config, rec *recorder) (w workload, failed int, d, probe time.Duration, steal float64, err error) {
	runtime.GC()
	host := readHostCPU()
	start := time.Now()
	w, failed, err = setup(cfg, rec)
	d = time.Since(start)
	steal = readHostCPU().sub(host).stealShare()
	return w, failed, d, probeHost(), steal, err
}

// runWorkload runs one workload: set-ups, warm-up, the timed phase (or,
// traced, the untraced and traced phases and the ladder) and the
// end-of-run checks.
func runWorkload(cfg config, out io.Writer) (result, error) {
	if cfg.setups < 1 || cfg.seconds <= 0 {
		return result{}, errors.New("need -setups >= 1 and -seconds > 0")
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "cdtbench %s seed=%d seconds=%g trace=%t GOMAXPROCS=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0))
	var w workload
	var setupTimes, setupProbes, setupSteal []float64
	attempted, failed := 0, 0
	for i := 0; i < cfg.setups; i++ {
		if w != nil {
			w.close()
		}
		nw, f, d, probe, steal, err := timedSetup(cfg, nil)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		w = nw
		setupTimes = append(setupTimes, d.Seconds())
		setupProbes = append(setupProbes, ms(probe))
		setupSteal = append(setupSteal, steal)
		attempted++
		failed += f
	}
	defer w.close()
	// Single probes vary more than set-ups do (within one run they
	// ranged from 2.6 to 9 ms), so the median set-up is scaled by the
	// median probe rather than each set-up by its own.
	var quietTimes, quietProbes []float64
	for _, i := range quiet(setupSteal) {
		quietTimes = append(quietTimes, setupTimes[i])
		quietProbes = append(quietProbes, setupProbes[i])
	}
	setupRaw := median(quietTimes)
	setupS := setupRaw * ms(probeRef) / median(quietProbes)
	fmt.Fprintf(out, "set-ups: %d, times %s s, probes after them %s ms, host steal %s; setup_s is the median time of the %d whose steal is at most the median set-up's, scaled by their median probe\n",
		len(setupTimes), formatList(setupTimes), formatList(setupProbes), formatList(setupSteal), len(quietTimes))

	cs := w.clients()
	n, f := warm(cs, w.warmups())
	attempted += n
	failed += f
	d := time.Duration(cfg.seconds * float64(time.Second))
	var measured phase
	var layer []metric
	var recs []*recorder
	if !cfg.trace {
		measured = runPhase(cs, d, 0, time.Now())
	} else {
		var traced phase
		var err error
		measured, traced, layer, recs, err = tracedRun(cfg, w, cs, d, setupS, out)
		if err != nil {
			return result{}, err
		}
		attempted += traced.ops + 1 // the traced set-up's first op
		failed += traced.failed
	}
	attempted += measured.ops
	failed += measured.failed
	failed += w.finish()
	rss, err := peakRSSMiB()
	if err != nil {
		return result{}, err
	}

	e2e := append([]metric{{"setup_s", setupS, "s"}}, measured.endToEnd()...)
	e2e = append(e2e, metric{"peak_rss_mb", rss, "MiB"})
	beyond := measured.ops - int(0.9*float64(measured.ops))
	fmt.Fprintf(out, "timed phase: %d ops (%d beyond p90) over %.3f s in %d slices, %d points; %.1f%% of the clients' time inside calls into the program\n",
		measured.ops, beyond, measured.wall.Seconds(), len(measured.slices), measured.points,
		100*measured.inCalls.Seconds()/(float64(measured.clients)*measured.wall.Seconds()))
	raw := map[string]float64{"setup_s": setupRaw, "peak_rss_mb": rss}
	for _, m := range measured.sliceMedians("raw.") {
		raw[m.name] = m.value
	}
	fmt.Fprintf(out, "end-to-end metrics, times scaled to the reference host speed (probe %.3f ms), with the same medians as measured:\n", ms(probeRef))
	for _, m := range e2e {
		fmt.Fprintf(out, "  %-34s %14.6g %-9s n=%-7d as measured %.6g\n", m.name, m.value, m.unit, sampleCount(m.name, len(setupTimes), measured.ops), raw[m.name])
	}
	quiet := measured.quietSlices()
	fmt.Fprintf(out, "per slice (the metrics above are the medians over the %d slices marked *, whose host steal is at most the median slice's):\n", len(quiet))
	for _, m := range append(sliceMetrics, metric{"probe_ms", 0, "ms"}, metric{"steal_share", 0, "ratio"}) {
		fmt.Fprintf(out, "  %-34s %s\n", m.name, measured.formatSlices(m.name, quiet))
	}
	probes := make([]float64, 0, len(measured.slices))
	for _, k := range measured.measuredSlices() {
		probes = append(probes, ms(measured.slices[k].probe))
	}
	fmt.Fprintf(out, "host: steal %.2f%% of CPU time over the timed phase; probe median %.3f ms (min %.3f, max %.3f), so times scale by %.3f\n",
		100*measured.host.stealShare(), median(probes), slices.Min(probes), slices.Max(probes), ms(probeRef)/median(probes))
	for _, m := range w.props() {
		fmt.Fprintf(out, "  property %-31s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(out, "ops attempted=%d failed=%d\n", attempted, failed)

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed}
	if !cfg.trace {
		res.Metrics, err = reportAs(endToEndMetrics, e2e, nil)
		return res, err
	}
	if res.Metrics, err = reportAs(perLayerMetrics, layer, out); err != nil {
		return result{}, err
	}
	path := filepath.Join(cfg.workdir, "spans-"+cfg.workload+".jsonl")
	if err := writeSpans(path, recs...); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	return res, nil
}

// tracedRun splits the measured time in three equal parts: an untraced
// timed phase, a traced one (spans around every op, or an even 1-in-k
// sample within the span budget), then the ladder. It returns both
// phases, the per-layer metrics and the span recorders; the difference
// of the two phases, and of one extra set-up with spans against the
// untraced median, is the tracing overhead.
func tracedRun(cfg config, w workload, cs []client, d time.Duration, setupS float64, out io.Writer) (untraced, traced phase, layer []metric, recs []*recorder, err error) {
	base := time.Now()
	untraced = runPhase(cs, d/3, 0, base)
	rssBefore, err := peakRSSMiB()
	if err != nil {
		return
	}
	every := max(1, int64(untraced.ops)*2/spanBudget+1)
	traced = runPhase(cs, d/3, every, base)
	rssAfter, err := peakRSSMiB()
	if err != nil {
		return
	}
	srec := newRecorder(base, len(cs))
	sw, f, sd, sprobe, _, err := timedSetup(cfg, srec)
	if err != nil {
		err = fmt.Errorf("traced set-up: %w", err)
		return
	}
	sw.close()
	traced.failed += f
	lrec := newRecorder(base, len(cs)+1)
	if layer, err = w.ladder(lrec, time.Now().Add(d/3)); err != nil {
		err = fmt.Errorf("ladder: %w", err)
		return
	}
	layer = append(layer, untraced.runtimeMetrics()...)
	t := totals(traced.recs...)
	client := (t.sum("op") - t.sum("server.handler")) / time.Duration(max(t.count("op"), 1))
	fmt.Fprintf(out, "traced phase: spans on 1 in %d ops, %d ops traced\n", every, t.count("op"))
	layer = append(layer,
		metric{"client.us_per_op", us(client), "us"},
		metric{"latency_p99_ms", ms(untraced.latency.quantile(0.99)), "ms"},
		metric{"latency_samples", float64(untraced.latency.n), "count"},
		metric{"overhead.setup_s", sd.Seconds()*hostSpeed(sprobe) - setupS, "s"},
		metric{"overhead.peak_rss_mb", rssAfter - rssBefore, "MiB"},
	)
	te := traced.endToEnd()
	for i, m := range untraced.endToEnd() {
		layer = append(layer, metric{"overhead." + m.name, te[i].value - m.value, m.unit})
	}
	return untraced, traced, layer, append(append(traced.recs, srec), lrec), nil
}

// reportAs lays measured metrics out as the catalog lists them: every
// catalog metric, with 0 for one the workload does not measure. When out
// is not nil it prints them, then the measured values the catalog does
// not list, as properties.
func reportAs(catalog, measured []metric, out io.Writer) (map[string]metricJSON, error) {
	got := map[string]metric{}
	for _, m := range measured {
		got[m.name] = m
	}
	res := map[string]metricJSON{}
	for _, want := range catalog {
		m := got[want.name]
		if m.name != "" && m.unit != want.unit {
			return nil, fmt.Errorf("metric %s has unit %s, want %s", m.name, m.unit, want.unit)
		}
		res[want.name] = metricJSON{m.value, want.unit}
		if out != nil {
			fmt.Fprintf(out, "  %-36s %14.6g %s\n", want.name, m.value, want.unit)
		}
	}
	if out != nil {
		for _, m := range measured {
			if _, ok := res[m.name]; !ok {
				fmt.Fprintf(out, "  property %-27s %14.6g %s\n", m.name, m.value, m.unit)
			}
		}
	}
	return res, nil
}

// sampleCount is the number of samples behind an end-to-end metric.
func sampleCount(name string, setups, ops int) int {
	switch name {
	case "setup_s":
		return setups
	case "peak_rss_mb":
		return 1
	}
	return ops
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func formatList(v []float64) string {
	out := ""
	for i, x := range v {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.4g", x)
	}
	return out
}

// formatSlices lists one per-slice quantity over the measured slices,
// marking those in quiet with a *.
func (p phase) formatSlices(name string, quiet []int) string {
	out := ""
	for _, k := range p.measuredSlices() {
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%.4g", p.slices[k].value(name))
		if slices.Contains(quiet, k) {
			out += "*"
		}
	}
	return out
}

// runAll runs every workload, each in its own child process, one after
// another, and exits non-zero if any of them failed.
func runAll(cfg config, trace int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "cdtbench: %v\n", err)
		return 1
	}
	code := 0
	for _, name := range workloadNames {
		cmd := exec.Command(self,
			"--workload", name, "--seed", fmt.Sprint(cfg.seed), "--seconds", fmt.Sprint(cfg.seconds),
			"--trace", fmt.Sprint(trace), "--workdir", cfg.workdir)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "cdtbench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}
