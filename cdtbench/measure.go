package main

// The timed phase: closed-loop clients run operations until the
// deadline; the phase reports latency percentiles, throughput, CPU per
// operation and the runtime's allocation and scheduling counters.

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workload is one set-up instance: a loaded server (or training data)
// plus the inputs its clients send.
type workload interface {
	// clients returns the closed-loop clients, one goroutine each.
	clients() []client
	// warmups is the fixed number of operations each client runs
	// before the timed phase.
	warmups() int
	// finish runs the end-of-run output checks and returns the number
	// of operations they found wrong.
	finish() int
	// props reports the input properties of what was sent.
	props() []metric
	// ladder times calls into each layer on the workload's inputs until
	// the deadline, recording a span per call, and derives the
	// per-layer metrics from the spans.
	ladder(rec *recorder, until time.Time) ([]metric, error)
	// close releases the server and its model directory.
	close()
}

// maxLadderOps caps a ladder's operations: its metrics are means that
// settle long before, and every op adds spans to the run's trace file.
const maxLadderOps = 20000

// spanBudget bounds the spans a traced phase records: ops are sampled
// evenly (every k-th op of each client) when the untraced phase's op
// rate says tracing all of them would exceed it.
const spanBudget = 200000

// client is one closed-loop client. It is used by one goroutine.
type client interface {
	// op runs one operation and checks its output. latency is the wall
	// time of the calls into the program; request building and checks
	// stay outside it. rec, when not nil, gets the op's spans.
	op(rec *recorder, id int64) opResult
}

type opResult struct {
	latency time.Duration
	points  int
	ok      bool
}

// metric is one named, measured value.
type metric struct {
	name  string
	value float64
	unit  string
}

// phaseSlices is how many slices a timed phase is cut into. Between
// two slices every client stops and the host probe runs (see
// probeHost). Each timed end-to-end metric is the median of its
// per-slice values, each scaled by its slice's probe, so a stretch of
// contention on the shared host, which slows the program and the probe
// alike, cancels out, and a disturbance covering fewer than half the
// slices does not move the median. Short slices follow the host closely:
// replayed on a recording cut into 30 s windows, the windows' scaled p50
// spread by 9% between quartiles with 16 slices each and by 3–4% with
// 64 (NOTES.md).
const phaseSlices = 64

// phase is what one timed phase measured.
type phase struct {
	latency     *latencyHist // per-op latency, every client and slice
	ops, failed int
	points      int64
	wall        time.Duration
	cpu         time.Duration
	inCalls     time.Duration // summed op latencies, every client
	clients     int
	slices      []slice
	host        hostCPU // host CPU counters over the phase
	rt          runtimeDelta
	recs        []*recorder
}

// slice is one slice of a timed phase. Its times are as measured; value
// scales them by the probe.
type slice struct {
	p50, p90    time.Duration
	ops, failed int
	points      int64
	wall, cpu   time.Duration
	host        hostCPU
	probe       time.Duration // the host probe run right after the slice
}

// mark is a point in time of a phase: wall clock, process CPU and host
// CPU counters.
type mark struct {
	at   time.Time
	cpu  time.Duration
	host hostCPU
}

func markNow() mark { return mark{at: time.Now(), cpu: cpuTime(), host: readHostCPU()} }

// warm runs each client's fixed warm-up count and returns the number of
// failed operations.
func warm(cs []client, n int) (ops, failed int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c client) {
			defer wg.Done()
			bad := 0
			for i := 0; i < n; i++ {
				if !c.op(nil, int64(i)).ok {
					bad++
				}
			}
			mu.Lock()
			failed += bad
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return n * len(cs), failed
}

// tally is what one client measured in the current slice.
type tally struct {
	latency     latencyHist
	ops, failed int
	points      int64
	inCalls     time.Duration
}

// runPhase runs every client in a closed loop for d, in phaseSlices
// slices of d/phaseSlices each. A slice ends once every client has
// finished its op that crossed the slice's end, so it holds whole ops
// and exactly their wall and CPU time; then, with every client stopped,
// the host probe runs. With traceEvery k > 0, each client records the
// spans of every k-th op on its own track; 0 records nothing.
func runPhase(cs []client, d time.Duration, traceEvery int64, base time.Time) phase {
	p := phase{clients: len(cs), slices: make([]slice, phaseSlices), latency: &latencyHist{}}
	p.recs = make([]*recorder, len(cs))
	if traceEvery > 0 {
		for i := range p.recs {
			p.recs[i] = newRecorder(base, i)
		}
	}
	tallies := make([]tally, len(cs))
	ids := make([]int64, len(cs))
	var merged latencyHist
	runtime.GC()
	rt0 := readRuntime()
	for k := range p.slices {
		start := markNow()
		deadline := start.at.Add(d / phaseSlices)
		var wg sync.WaitGroup
		for i, c := range cs {
			wg.Add(1)
			go func(t *tally, id *int64, rec *recorder, c client) {
				defer wg.Done()
				for {
					var r *recorder
					if traceEvery > 0 && *id%traceEvery == 0 {
						r = rec
					}
					res := c.op(r, *id)
					*id++
					t.latency.record(res.latency)
					t.ops++
					t.points += int64(res.points)
					if !res.ok {
						t.failed++
					}
					t.inCalls += res.latency
					if !time.Now().Before(deadline) {
						return
					}
				}
			}(&tallies[i], &ids[i], p.recs[i], c)
		}
		wg.Wait()
		end := markNow()
		s := &p.slices[k]
		s.wall = end.at.Sub(start.at)
		s.cpu = end.cpu - start.cpu
		s.host = end.host.sub(start.host)
		merged = latencyHist{}
		for i := range tallies {
			t := &tallies[i]
			merged.merge(&t.latency)
			s.ops += t.ops
			s.failed += t.failed
			s.points += t.points
			p.inCalls += t.inCalls
			tallies[i] = tally{}
		}
		s.p50, s.p90 = merged.quantile(0.50), merged.quantile(0.90)
		p.latency.merge(&merged)
		p.ops += s.ops
		p.failed += s.failed
		p.points += s.points
		p.wall += s.wall
		p.cpu += s.cpu
		p.host = p.host.add(s.host)
		s.probe = probeHost()
	}
	p.rt = readRuntime().sub(rt0)
	return p
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// endToEnd derives the timed-phase end-to-end metrics: each is the
// median of its probe-scaled values in the quiet slices.
func (p phase) endToEnd() []metric { return p.sliceMedians("") }

// sliceMedians is the median over the quiet slices of each slice
// metric's value under the name prefix+metric (see slice.value).
func (p phase) sliceMedians(prefix string) []metric {
	quiet := p.quietSlices()
	out := make([]metric, len(sliceMetrics))
	for i, m := range sliceMetrics {
		v := make([]float64, len(quiet))
		for j, k := range quiet {
			v[j] = p.slices[k].value(prefix + m.name)
		}
		out[i] = metric{m.name, median(v), m.unit}
	}
	return out
}

// sliceMetrics are the end-to-end metrics measured per slice.
var sliceMetrics = []metric{
	{"latency_p50_ms", 0, "ms"},
	{"latency_p90_ms", 0, "ms"},
	{"throughput_points_per_s", 0, "points/s"},
	{"cpu_ms_per_op", 0, "ms"},
}

// measuredSlices lists the slices that completed ops, in time order.
func (p phase) measuredSlices() []int {
	var out []int
	for k := range p.slices {
		if p.slices[k].ops > 0 && p.slices[k].wall > 0 && p.slices[k].probe > 0 {
			out = append(out, k)
		}
	}
	return out
}

// quietSlices lists the measured slices in which the host stole no
// more CPU time than in the median slice (see quiet).
func (p phase) quietSlices() []int {
	k := p.measuredSlices()
	steal := make([]float64, len(k))
	for i, j := range k {
		steal[i] = p.slices[j].host.stealShare()
	}
	q := quiet(steal)
	for i, j := range q {
		q[i] = k[j]
	}
	return q
}

// quiet lists the indices of the steal shares no larger than their
// median: at least half of them, and all of them on a host that steals
// nothing. Steal only ever slows the program, and it comes in episodes
// of seconds to minutes, so the measurements taken in these intervals
// are the ones that show the program rather than the host.
func quiet(steal []float64) []int {
	if len(steal) == 0 {
		return nil
	}
	sorted := append([]float64(nil), steal...)
	sort.Float64s(sorted)
	limit := sorted[(len(sorted)-1)/2]
	var out []int
	for i, v := range steal {
		if v <= limit {
			out = append(out, i)
		}
	}
	return out
}

// value is one per-slice quantity: an end-to-end metric scaled to the
// reference host speed (see hostSpeed), the same metric as measured
// (the name with a "raw." prefix), "probe_ms" or "steal_share".
func (s *slice) value(name string) float64 {
	if raw, ok := strings.CutPrefix(name, "raw."); ok {
		return s.measured(raw)
	}
	switch name {
	case "latency_p50_ms", "latency_p90_ms", "cpu_ms_per_op":
		return s.measured(name) * hostSpeed(s.probe)
	case "throughput_points_per_s":
		return s.measured(name) / hostSpeed(s.probe)
	case "probe_ms":
		return ms(s.probe)
	case "steal_share":
		return s.host.stealShare()
	}
	return 0
}

// measured is one end-to-end metric of the slice as measured.
func (s *slice) measured(name string) float64 {
	switch name {
	case "latency_p50_ms":
		return ms(s.p50)
	case "latency_p90_ms":
		return ms(s.p90)
	case "throughput_points_per_s":
		return float64(s.points) / s.wall.Seconds()
	case "cpu_ms_per_op":
		return ms(s.cpu) / float64(s.ops)
	}
	return 0
}

// hostCPU holds the host's aggregate CPU counters from /proc/stat, in
// clock ticks: all time, and the time the hypervisor gave this VM's
// vCPUs to someone else (steal). Zero when /proc/stat is unreadable.
type hostCPU struct{ total, steal uint64 }

func readHostCPU() hostCPU {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return hostCPU{}
		}
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

func (h hostCPU) sub(prev hostCPU) hostCPU {
	return hostCPU{total: h.total - prev.total, steal: h.steal - prev.steal}
}

func (h hostCPU) add(o hostCPU) hostCPU {
	return hostCPU{total: h.total + o.total, steal: h.steal + o.steal}
}

// stealShare is the share of the VM's CPU time stolen by the host.
func (h hostCPU) stealShare() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.steal) / float64(h.total)
}

// probeRef is the probe's time on the reference host. A time measured
// while the probe took t is reported as that time × probeRef/t: the
// time it would have taken on the reference host. probeRef is the
// probe's lowest decile on the 2-vCPU VM of NOTES.md, so reported
// times sit near what that VM measures when nothing else loads its host.
const probeRef = 3 * time.Millisecond

// probeChunks is the probe's input: 16 JSON arrays of 1,000
// pseudo-random floats each, written shortest-round-trip as in the
// request bodies, and the same numbers comma-separated as a string, so
// that parsing them allocates nothing. It is fixed — made by the
// standard library from a constant seed, not by the program — so the
// probe does the same work in every run of every version of the
// program.
var probeChunks = func() (chunks [16]struct {
	json    []byte
	numbers string
}) {
	x := uint64(88172645463325252)
	for c := range chunks {
		b := []byte{'['}
		for i := 0; i < 1000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, float64(x>>11)/(1<<53), 'g', -1, 64)
		}
		b = append(b, ']')
		chunks[c].json, chunks[c].numbers = b, string(b[1:len(b)-1])
	}
	return chunks
}()

// probeSums keeps the probe's parsing from being optimized away.
var probeSums [len(probeChunks)]float64

// probeHost times a fixed piece of work that does not touch the
// program: GOMAXPROCS goroutines share GOMAXPROCS passes over
// probeChunks, validating each chunk with the standard JSON scanner and
// parsing its numbers with strconv. Contention on the shared host
// (other tenants' load on the cores, caches and memory) slows it as it
// slows the program's decoding and scoring, while a pure-arithmetic
// loop barely notices: on the VM of NOTES.md the program's raw p50
// moved from 5.2 to 7.3 ms over nine minutes, its ratio to this work by
// 2–4%. The goroutines take chunks as they go, as the server's workers
// take series, so a vCPU that runs slower than the other weighs in the
// probe as it does in a batch op; timed on one goroutine, the probe
// read either vCPU's speed. The probe allocates nothing, so the
// program's garbage collection does not bill it.
func probeHost() time.Duration {
	n := runtime.GOMAXPROCS(0)
	total := int64(n * len(probeChunks))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := next.Add(1) - 1; j < total; j = next.Add(1) - 1 {
				c := &probeChunks[j%int64(len(probeChunks))]
				if !json.Valid(c.json) {
					panic("cdtbench: probe chunk is not JSON")
				}
				sum := 0.0
				for s := c.numbers; s != ""; {
					num, rest, _ := strings.Cut(s, ",")
					v, err := strconv.ParseFloat(num, 64)
					if err != nil {
						panic("cdtbench: probe chunk: " + err.Error())
					}
					sum += v
					s = rest
				}
				if j < int64(len(probeChunks)) {
					probeSums[j] = sum
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// hostSpeed is the factor that scales a time measured while the probe
// took probe to the reference host.
func hostSpeed(probe time.Duration) float64 {
	return float64(probeRef) / float64(probe)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}

// runtimeDelta holds runtime/metrics counters over a phase.
type runtimeDelta struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
	sched                    *metrics.Float64Histogram
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var d runtimeDelta
	if s[0].Value.Kind() == metrics.KindUint64 {
		d.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		d.allocObjects = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		d.gcCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		d.totalCPU = s[3].Value.Float64()
	}
	if s[4].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[4].Value.Float64Histogram()
		d.sched = &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
	}
	return d
}

// sub returns the counters accumulated since an earlier reading.
func (d runtimeDelta) sub(prev runtimeDelta) runtimeDelta {
	out := runtimeDelta{
		allocBytes:   d.allocBytes - prev.allocBytes,
		allocObjects: d.allocObjects - prev.allocObjects,
		gcCPU:        d.gcCPU - prev.gcCPU,
		totalCPU:     d.totalCPU - prev.totalCPU,
	}
	if d.sched != nil && prev.sched != nil && len(d.sched.Counts) == len(prev.sched.Counts) {
		counts := make([]uint64, len(d.sched.Counts))
		for i := range counts {
			counts[i] = d.sched.Counts[i] - prev.sched.Counts[i]
		}
		out.sched = &metrics.Float64Histogram{Counts: counts, Buckets: d.sched.Buckets}
	}
	return out
}

// histQuantile is the upper bound of the bucket holding the q-quantile
// (infinite bounds fall back to the bucket's lower bound).
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen >= target {
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 0) {
				return hi
			}
			return h.Buckets[i]
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// runtimeMetrics derives the runtime layer's per-op metrics.
func (p phase) runtimeMetrics() []metric {
	ops := float64(max(p.ops, 1))
	share := 0.0
	if p.rt.totalCPU > 0 {
		share = p.rt.gcCPU / p.rt.totalCPU
	}
	return []metric{
		{"runtime.alloc_kb_per_op", float64(p.rt.allocBytes) / 1024 / ops, "KiB"},
		{"runtime.allocs_per_op", float64(p.rt.allocObjects) / ops, "count"},
		{"runtime.gc_cpu_share", share, "ratio"},
		{"runtime.sched_latency_p90_us", histQuantile(p.rt.sched, 0.90) * 1e6, "us"},
	}
}
