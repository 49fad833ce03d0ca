package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// smallSizes keeps every workload's set-up and ladder in the tens of
// milliseconds.
var smallSizes = sizes{
	batch: batchSizes{trainSensors: 4, trainDays: 300, perBody: 4, points: 400, bodies: 2},
	stream: streamSizes{
		trainSensors: 4, trainDays: 300, poolSensors: 2, poolDays: 512,
		sessions: 8, burst: 16, churnEvery: 8,
	},
	train: trainSizes{problems: 2, trainFiles: 2, valFiles: 1, points: 200, initPoints: 2, iterations: 1},
}

func smallConfig(t *testing.T, workload string, seed int64) config {
	return config{workload: workload, seed: seed, seconds: 0.2, workdir: t.TempDir(), setups: 1, sizes: smallSizes}
}

func TestGeneratorsDeterministic(t *testing.T) {
	body := func(seed int64, b int) []byte {
		_, body, err := batchBody(seed, b, 2, 200)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	if !bytes.Equal(body(7, 0), body(7, 0)) {
		t.Error("scoring bodies differ for the same seed")
	}
	if bytes.Equal(body(7, 0), body(8, 0)) || bytes.Equal(body(7, 0), body(7, 1)) {
		t.Error("scoring bodies equal for different seeds or body indices")
	}
	for seed := int64(0); seed < 3; seed++ {
		if reflect.DeepEqual(trainingSeries(2, 100)[1].Values, scoringSeries(seed, 2, 100)[1].Values) {
			t.Errorf("seed %d scores the served model's training data", seed)
		}
	}
	tr1, val1 := searchCorpora(7, 0, smallSizes.train)
	tr2, val2 := searchCorpora(7, 0, smallSizes.train)
	tr3, _ := searchCorpora(8, 0, smallSizes.train)
	tr4, _ := searchCorpora(7, 1, smallSizes.train)
	if !reflect.DeepEqual(tr1, tr2) || !reflect.DeepEqual(val1, val2) || reflect.DeepEqual(tr1, tr3) || reflect.DeepEqual(tr1, tr4) {
		t.Error("search corpora not a pure function of the seed and problem")
	}
	if searchOptions(7, smallSizes.train).Seed == searchOptions(8, smallSizes.train).Seed {
		t.Error("search seed does not follow the run seed")
	}
}

func TestSignificantDigits(t *testing.T) {
	for v, want := range map[float64]int{0.5: 1, 123.25: 5, 0.30000000000000004: 17, 1e21: 1} {
		if got := significantDigits(v); got != want {
			t.Errorf("significantDigits(%v) = %d, want %d", v, got, want)
		}
	}
}

// lowerRungSlack is how far the rungs below cdt's score call may sum
// above it: they time the same work as separate sub-millisecond calls,
// each paying its own timer reads and scheduling.
const lowerRungSlack = 1.15

// TestLadderRungsNest checks the batch ladder's decomposition on a small
// fixture, comparing sums of span durations taken in the same loop:
// every rung is positive; the cdt rung, summed over every request's
// series, is at most the one-worker handler that scored those series
// and also decoded and encoded them; and the rungs below cdt (normalize,
// resample, label, sweep) sum to at most its score call, within
// lowerRungSlack.
func TestLadderRungsNest(t *testing.T) {
	for _, name := range []string{"batch-plain", "batch-pyramid"} {
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig(t, name, 3)
			w, failed, err := setupBatch(cfg, nil, name == "batch-pyramid")
			if err != nil || failed != 0 {
				t.Fatalf("set-up: failed=%d err=%v", failed, err)
			}
			defer w.close()
			rec := newRecorder(time.Now(), 0)
			m, err := w.ladder(rec, time.Now().Add(300*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			tot := totals(rec)
			rungs := []string{"server.handler", "cdt.detect", "cdt.score", "timeseries.normalize", "pattern.label", "engine.sweep"}
			lower := []string{"timeseries.normalize", "pattern.label", "engine.sweep"}
			if name == "batch-pyramid" {
				rungs = append(rungs, "fusion.resample", "fusion.scale_detect")
				lower = append(lower, "fusion.resample")
			}
			for _, r := range rungs {
				if tot.count(r) == 0 || tot.sum(r) <= 0 {
					t.Errorf("rung %s: %d spans, %v in total", r, tot.count(r), tot.sum(r))
				}
			}
			if d, h := tot.sum("cdt.detect"), tot.sum("server.handler"); d > h {
				t.Errorf("cdt detect %v over the handler's %v: the rungs exceed the handler", d, h)
			}
			var sum time.Duration
			for _, r := range lower {
				sum += tot.sum(r)
			}
			score := tot.sum("cdt.score")
			t.Logf("handler %v, cdt detect %v, cdt score %v, rungs below %v", tot.sum("server.handler"), tot.sum("cdt.detect"), score, sum)
			if float64(sum) > lowerRungSlack*float64(score) {
				t.Errorf("rungs below cdt sum to %v, over %.2f x its score call (%v)", sum, lowerRungSlack, score)
			}
			for _, x := range m {
				if x.name == "server.self_us_per_op" && x.value <= 0 {
					t.Errorf("server self time %.1fus per op, want > 0", x.value)
				}
			}
		})
	}
}

func TestBatchCheckRejectsCorruption(t *testing.T) {
	cfg := smallConfig(t, "batch-plain", 4)
	w, failed, err := setupBatch(cfg, nil, false)
	if err != nil || failed != 0 {
		t.Fatalf("set-up: failed=%d err=%v", failed, err)
	}
	defer w.close()
	good := w.want[0]
	if err := checkBatchResponse(http.StatusOK, good, w.name, w.reqs[0], w.art); err != nil {
		t.Fatalf("verified body rejected: %v", err)
	}
	i := bytes.Index(good, []byte(`"start":`))
	if i < 0 {
		t.Fatalf("fixture has no detections: %s", good)
	}
	bad := bytes.Clone(good)
	bad[i+len(`"start":`)]++ // shift one detection's first point
	if err := checkBatchResponse(http.StatusOK, bad, w.name, w.reqs[0], w.art); err == nil {
		t.Error("corrupted detection accepted")
	}
	if err := checkBatchResponse(http.StatusInternalServerError, good, w.name, w.reqs[0], w.art); err == nil {
		t.Error("wrong status accepted")
	}
	c := newBatchClient(w)
	c.sink.status, c.sink.body = http.StatusOK, bad
	if c.check(0) {
		t.Error("timed response differing from the verified bytes accepted")
	}
	c.sink.body = good
	if !c.check(0) {
		t.Error("timed response equal to the verified bytes rejected")
	}
}

func TestStreamReplayRejectsMismatch(t *testing.T) {
	cfg := smallConfig(t, "stream-push", 5)
	w, failed, err := setupStream(cfg, nil)
	if err != nil || failed != 0 {
		t.Fatalf("set-up: failed=%d err=%v", failed, err)
	}
	defer w.close()
	cs := w.clients()
	if _, failed := warm(cs, 40); failed != 0 {
		t.Fatalf("%d pushes failed", failed)
	}
	if f := w.finish(); f != 0 {
		t.Fatalf("replay of an honest run found %d failed pushes", f)
	}
	if w.fired == 0 {
		t.Fatal("fixture fired no detections; the replay check would be vacuous")
	}
	// A replay over other points must disagree with what was served.
	s := w.cs[0].slots[0]
	s.rec.start = (s.rec.start + 1) % len(w.bursts)
	if f := w.finish(); f < s.rec.pushes {
		t.Errorf("wrong replay found %d failed pushes, want at least %d", f, s.rec.pushes)
	}
	if _, ok := pushDigest(0, []byte(`{"detections":[{"window_start":x`)); ok {
		t.Error("malformed push response accepted")
	}
	h1, _ := pushDigest(0, []byte(`{"detections":[{"window_start":3,"window_end":7,"rules":[{"index":1,"text":"a\"index\":9"}]}],"points_consumed":9,"ready":true}`))
	h2, _ := pushDigest(0, []byte(`{"detections":[{"window_start":3,"window_end":7,"rules":[{"index":2,"text":"a\"index\":9"}]}],"points_consumed":9,"ready":true}`))
	if h1 == h2 {
		t.Error("digest ignores the fired rule index")
	}
}

// TestRunReportsContractJSON runs every workload end to end at small
// sizes and checks the last output line (correct, attempted, failed and
// every catalogued metric with its unit), and that every layer's metrics
// are measured on some workload.
func TestRunReportsContractJSON(t *testing.T) {
	measured := map[string]bool{}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := smallConfig(t, name, 9)
			cfg.trace = trace
			var out bytes.Buffer
			res, err := runWorkload(cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%t: %v\n%s", name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s", name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := endToEndMetrics
			if trace {
				want = perLayerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", name, trace, m.name, got, m.unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, got.Value)
				}
				if trace && got.Value != 0 {
					measured[m.name] = true
				}
			}
		}
	}
	for _, m := range perLayerMetrics {
		// Tracing overheads are differences and may come out 0.
		if !measured[m.name] && !strings.HasPrefix(m.name, "overhead.") {
			t.Errorf("per-layer metric %s is 0 on every workload", m.name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric and
// workload names the program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	same := func(kind string, got []named, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s %s, program reports %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stderr strings.Builder
	if code := run([]string{"--workload", "nope", "--workdir", t.TempDir()}, io.Discard, &stderr); code == 0 {
		t.Errorf("unknown workload exited 0")
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	var h latencyHist
	var exact []time.Duration
	for i := 0; i < 5000; i++ {
		d := time.Duration(1000 + (i*7919)%20000000) // 1µs .. 20ms, scrambled
		h.record(d)
		exact = append(exact, d)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := exact[int(q*float64(len(exact)-1))]
		got := h.quantile(q)
		if diff := math.Abs(float64(got-want)) / float64(want); diff > 0.01 {
			t.Errorf("q%.2f = %v, exact %v (%.2f%% off)", q, got, want, 100*diff)
		}
	}
	if b := bucket(12345678); b >= len(h.counts) {
		t.Fatalf("bucket %d out of range", b)
	}
	for _, ns := range []uint64{0, 1, 127, 128, 129, 1 << 20, 1<<40 + 12345} {
		lo, w := bounds(bucket(ns))
		if ns < lo || ns >= lo+w {
			t.Errorf("%d lands in [%d,%d)", ns, lo, lo+w)
		}
	}
}

// TestSliceScalesToReferenceHost checks that a slice reports times
// scaled by probeRef over its probe and throughput scaled the other way,
// keeps the measured values under the raw. prefix, and that a slice on
// the reference host reports them unchanged.
func TestSliceScalesToReferenceHost(t *testing.T) {
	s := slice{p50: 4 * time.Millisecond, p90: 6 * time.Millisecond, ops: 10, points: 1000,
		wall: time.Second, cpu: 50 * time.Millisecond, probe: 2 * probeRef}
	for name, want := range map[string]float64{
		"latency_p50_ms": 2, "latency_p90_ms": 3, "cpu_ms_per_op": 2.5, "throughput_points_per_s": 2000,
		"raw.latency_p50_ms": 4, "raw.throughput_points_per_s": 1000, "probe_ms": 2 * ms(probeRef),
	} {
		if got := s.value(name); math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	s.probe = probeRef
	for _, m := range sliceMetrics {
		if got, raw := s.value(m.name), s.value("raw."+m.name); got != raw {
			t.Errorf("%s on the reference host = %v, measured %v", m.name, got, raw)
		}
	}
}

// TestProbeDoesFixedWork checks that the probe parses the same numbers
// on every call and that its allocations (goroutines and their shared
// counters) do not grow with the numbers it parses.
func TestProbeDoesFixedWork(t *testing.T) {
	if d := probeHost(); d <= 0 {
		t.Fatalf("probe took %v", d)
	}
	first := probeSums
	probeHost()
	if probeSums != first {
		t.Errorf("probe sums changed between calls: %v, then %v", first, probeSums)
	}
	if allocs := testing.AllocsPerRun(5, func() { probeHost() }); allocs > 32 {
		t.Errorf("probe allocates %v objects per call", allocs)
	}
	for i, c := range probeChunks {
		if !json.Valid(c.json) || strings.Count(c.numbers, ",") != 999 {
			t.Fatalf("chunk %d is not a JSON array of 1,000 numbers", i)
		}
	}
}
