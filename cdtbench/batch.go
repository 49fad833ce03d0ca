package main

// The batch workloads: POST /models/{name}/detect with multi-series
// bodies, to a plain CDT (batch-plain) or to a three-scale pyramid with
// learned weighted fusion (batch-pyramid).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"time"

	cdt "cdt"
	"cdt/internal/engine"
	"cdt/internal/pattern"
	"cdt/internal/server"
)

// batchSizes sizes a batch workload.
type batchSizes struct {
	trainSensors, trainDays int // training set
	perBody, points         int // series per request, points per series
	bodies                  int // distinct request bodies, sent round-robin
}

var defaultBatchSizes = batchSizes{trainSensors: 8, trainDays: 600, perBody: 8, points: 2000, bodies: 16}

// batchWorkload is a served model plus the request bodies sent to it.
type batchWorkload struct {
	workdir string
	seed    int64
	sz      batchSizes
	train   trainSizes // the training ladder's problems (batch-plain)
	name    string
	art     cdt.Artifact
	srv     *server.Server
	dir     string
	h       http.Handler
	url     *url.URL

	// Request bodies, generated on first use (see generate).
	reqs   []wireBatch
	bodies [][]byte
	points []int // points per body

	// want holds each body's verified response; tried marks bodies whose
	// first response was checked against the library (only the single
	// batch client touches either).
	want  [][]byte
	tried []bool
}

// fitArtifact trains the workload's model on the training series.
func fitArtifact(train []*cdt.Series, pyramid bool) (cdt.Artifact, error) {
	if !pyramid {
		return cdt.Fit(train, modelOptions)
	}
	pm, err := cdt.FitPyramid(train, modelOptions, pyramidConfig())
	if err != nil {
		return nil, err
	}
	if err := pm.TrainFusion(train); err != nil {
		return nil, err
	}
	return pm, nil
}

// setupBatch trains, loads a server, generates the first request body
// and runs that request, verified. The returned failed count is 1 when that
// first response did not check out.
func setupBatch(cfg config, rec *recorder, pyramid bool) (*batchWorkload, int, error) {
	sz := cfg.sizes.batch
	sp := rec.begin("setup.train", -1, -1)
	train := trainingSeries(sz.trainSensors, sz.trainDays)
	art, err := fitArtifact(train, pyramid)
	rec.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("training: %w", err)
	}
	name := "calorie"
	if pyramid {
		name = "calorie-pyramid"
	}
	sp = rec.begin("setup.load", -1, -1)
	srv, dir, err := loadServer(cfg.workdir, name, art, 0)
	rec.end(sp)
	if err != nil {
		return nil, 0, err
	}
	w := &batchWorkload{
		workdir: cfg.workdir, seed: cfg.seed, sz: sz, train: cfg.sizes.train,
		name: name, art: art, srv: srv, dir: dir, h: srv.Handler(),
		url:  mustURL("/models/" + name + "/detect"),
		reqs: make([]wireBatch, sz.bodies), bodies: make([][]byte, sz.bodies), points: make([]int, sz.bodies),
		want: make([][]byte, sz.bodies), tried: make([]bool, sz.bodies),
	}
	sp = rec.begin("setup.data", -1, -1)
	err = w.generate(0)
	rec.end(sp)
	if err != nil {
		w.close()
		return nil, 0, err
	}
	if !newBatchClient(w).op(rec, -1).ok {
		return w, 1, nil
	}
	return w, 0, nil
}

// generate makes request body b unless it exists. Set-up makes only the
// first body, so setup_s times training, loading and the first request
// rather than the benchmark's own data generator; warm-up makes the rest.
// Its callers (set-up, the one batch client, the ladder) run one after
// another, never at once.
func (w *batchWorkload) generate(b int) error {
	if w.bodies[b] != nil {
		return nil
	}
	req, body, err := batchBody(w.seed, b, w.sz.perBody, w.sz.points)
	if err != nil {
		return err
	}
	w.reqs[b], w.bodies[b] = req, body
	for _, s := range req.Series {
		w.points[b] += len(s.Values)
	}
	return nil
}

func (w *batchWorkload) clients() []client { return []client{newBatchClient(w)} }

// warmups covers every body twice, so each body's first response is
// verified before the timed phase.
func (w *batchWorkload) warmups() int { return 2 * len(w.bodies) }

func (w *batchWorkload) finish() int { return 0 }

func (w *batchWorkload) close() {
	w.srv.Close()
	os.RemoveAll(w.dir)
}

// batchClient sends the bodies round-robin, one request at a time.
type batchClient struct {
	w    *batchWorkload
	req  *reusableRequest
	sink *sink
	next int
}

func newBatchClient(w *batchWorkload) *batchClient {
	return &batchClient{w: w, req: newReusableRequest(w.url), sink: newSink()}
}

func (c *batchClient) op(rec *recorder, id int64) opResult {
	w := c.w
	b := c.next
	c.next = (c.next + 1) % len(w.bodies)
	if err := w.generate(b); err != nil {
		fmt.Fprintf(os.Stderr, "cdtbench: body %d: %v\n", b, err)
		return opResult{}
	}
	root := rec.begin("op", id, -1)
	r := c.req.with(w.bodies[b])
	call := rec.begin("server.handler", id, root)
	lat := serve(w.h, c.sink, r)
	rec.end(call)
	ok := c.check(b)
	rec.end(root)
	return opResult{latency: lat, points: w.points[b], ok: ok}
}

// check verifies the response to body b: the first one is decoded and
// compared with the library's own detections, later ones must repeat
// the verified bytes exactly.
func (c *batchClient) check(b int) bool {
	w := c.w
	if !w.tried[b] {
		w.tried[b] = true
		if err := checkBatchResponse(c.sink.status, c.sink.body, w.name, w.reqs[b], w.art); err != nil {
			fmt.Fprintf(os.Stderr, "cdtbench: body %d: %v\n", b, err)
			return false
		}
		w.want[b] = bytes.Clone(c.sink.body)
		return true
	}
	return w.want[b] != nil && c.sink.status == http.StatusOK && bytes.Equal(c.sink.body, w.want[b])
}

// Wire forms of the batch response, as far as the checks read them.
type wireRule struct {
	Index int `json:"index"`
}

type wireScale struct {
	Factor int        `json:"factor"`
	Window int        `json:"window"`
	Start  int        `json:"start"`
	End    int        `json:"end"`
	Rules  []wireRule `json:"rules"`
}

type wireDetection struct {
	Window int         `json:"window"`
	Start  int         `json:"start"`
	End    int         `json:"end"`
	Rules  []wireRule  `json:"rules"`
	Type   string      `json:"type"`
	Scales []wireScale `json:"scales"`
}

type wireResult struct {
	Name       string          `json:"name"`
	Detections []wireDetection `json:"detections"`
	Error      string          `json:"error"`
}

type wireBatchResponse struct {
	Model   string       `json:"model"`
	Results []wireResult `json:"results"`
}

// checkBatchResponse decodes a batch-detect response and compares it,
// series by series, with art.DetectExplained on the request's values:
// windows, point ranges, fired rule indices, and for pyramids the
// anomaly type and per-scale breakdown.
func checkBatchResponse(status int, body []byte, model string, req wireBatch, art cdt.Artifact) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, body)
	}
	var resp wireBatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if resp.Model != model {
		return fmt.Errorf("model %q, want %q", resp.Model, model)
	}
	if len(resp.Results) != len(req.Series) {
		return fmt.Errorf("%d results for %d series", len(resp.Results), len(req.Series))
	}
	for i, s := range req.Series {
		got := resp.Results[i]
		if got.Name != s.Name || got.Error != "" {
			return fmt.Errorf("result %d: name %q error %q", i, got.Name, got.Error)
		}
		want, err := art.DetectExplained(context.Background(), cdt.NewSeries(s.Name, s.Values))
		if err != nil {
			return fmt.Errorf("library detect on %s: %w", s.Name, err)
		}
		if len(got.Detections) != len(want) {
			return fmt.Errorf("%s: %d detections, library has %d", s.Name, len(got.Detections), len(want))
		}
		for j, d := range want {
			g := got.Detections[j]
			if g.Window != d.Window || g.Start != d.Start || g.End != d.End || g.Type != string(d.Type) {
				return fmt.Errorf("%s detection %d: got window %d [%d,%d] %q, library %d [%d,%d] %q",
					s.Name, j, g.Window, g.Start, g.End, g.Type, d.Window, d.Start, d.End, d.Type)
			}
			if !sameRules(g.Rules, d.Fired) {
				return fmt.Errorf("%s detection %d: fired rules differ from the library", s.Name, j)
			}
			if len(g.Scales) != len(d.Scales) {
				return fmt.Errorf("%s detection %d: %d scales, library has %d", s.Name, j, len(g.Scales), len(d.Scales))
			}
			for k, sd := range d.Scales {
				gs := g.Scales[k]
				if gs.Factor != sd.Factor || gs.Window != sd.Window || gs.Start != sd.Start || gs.End != sd.End || !sameRules(gs.Rules, sd.Fired) {
					return fmt.Errorf("%s detection %d scale %d differs from the library", s.Name, j, k)
				}
			}
		}
	}
	return nil
}

func sameRules(got []wireRule, want []cdt.FiredPredicate) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i].Index != want[i].Index {
			return false
		}
	}
	return true
}

// props counts the input properties of the bodies: the share of their
// numbers a short-mantissa decoder could take, and the share of
// original-resolution windows the model fires on.
func (w *batchWorkload) props() []metric {
	var values, short, fired, windows int
	base := baseModel(w.art)
	for _, r := range w.reqs {
		for _, s := range r.Series {
			values += len(s.Values)
			short += shortFloats(s.Values)
			flags, err := base.DetectWindows(cdt.NewSeries(s.Name, s.Values))
			if err != nil {
				continue
			}
			windows += len(flags)
			for _, f := range flags {
				if f {
					fired++
				}
			}
		}
	}
	return []metric{
		{"server.short_float_share", ratio(short, values), "ratio"},
		{"input.fire_rate", ratio(fired, windows), "ratio"},
	}
}

func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// baseModel is the original-resolution model of an artifact.
func baseModel(art cdt.Artifact) *cdt.Model {
	if pm, ok := art.(*cdt.PyramidModel); ok {
		return pm.ScaleModel(0)
	}
	return art.(*cdt.Model)
}

// labelConfig is the labeling configuration a model applies (the
// root's Options.patternConfig, which is unexported).
func labelConfig(o cdt.Options) pattern.Config {
	eps := o.Epsilon
	if eps == 0 {
		eps = pattern.DefaultEpsilon
	}
	return pattern.Config{Delta: o.Delta, Epsilon: eps}
}

// normalized is the timeseries layer's share of scoring: min-max
// normalization of a copy, skipped for series already in [0,1].
func normalized(s *cdt.Series) (*cdt.Series, error) {
	lo, hi, err := s.MinMax()
	if err != nil {
		return nil, err
	}
	if lo >= 0 && hi <= 1 {
		return s, nil
	}
	c := s.Clone()
	if _, err := c.Normalize(); err != nil {
		return nil, err
	}
	return c, nil
}

// ladderScale is one resolution's rungs below the artifact.
type ladderScale struct {
	resample cdt.ResampleTransform
	model    *cdt.Model
	pcfg     pattern.Config
	eng      *engine.Engine
}

func ladderScales(art cdt.Artifact) []ladderScale {
	pm, ok := art.(*cdt.PyramidModel)
	if !ok {
		m := art.(*cdt.Model)
		return []ladderScale{{model: m, pcfg: labelConfig(m.Opts), eng: engine.Compile(m.Rule(), m.Opts.Omega)}}
	}
	var out []ladderScale
	for i, f := range pm.Config.Factors {
		m := pm.ScaleModel(i)
		out = append(out, ladderScale{
			resample: cdt.ResampleTransform{Factor: f, Aggregator: pm.Config.Aggregator},
			model:    m,
			pcfg:     labelConfig(m.Opts),
			eng:      engine.Compile(m.Rule(), m.Opts.Omega),
		})
	}
	return out
}

// ladder times, on the workload's bodies, the handler of a one-worker
// server (so the handler's time is sequential and the rungs below it
// subtract cleanly) and then, per series, each layer's public call.
// batch-plain spends the second half of its time on the training
// ladder, which no workload of its own runs.
func (w *batchWorkload) ladder(rec *recorder, until time.Time) ([]metric, error) {
	_, pyramid := w.art.(*cdt.PyramidModel)
	if pyramid {
		return w.servingLadder(rec, until)
	}
	m, err := w.servingLadder(rec, time.Now().Add(time.Until(until)/2))
	if err != nil {
		return nil, err
	}
	tm, err := trainLadder(w.seed, w.train, rec, until)
	if err != nil {
		return nil, err
	}
	return append(m, tm...), nil
}

// servingLadder is the serving half of the batch ladder.
func (w *batchWorkload) servingLadder(rec *recorder, until time.Time) ([]metric, error) {
	srv, dir, err := loadServer(w.workdir, w.name, w.art, 1)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer srv.Close()
	h, sk := srv.Handler(), newSink()
	_, pyramid := w.art.(*cdt.PyramidModel)
	scales := ladderScales(w.art)
	ctx := context.Background()
	var labels []pattern.Label
	var ops, series, fired, windows, points, reqBytes, respBytes int
	for op := int64(0); int(op) < len(w.bodies) || time.Now().Before(until); op++ {
		b := int(op) % len(w.bodies)
		if err := w.generate(b); err != nil {
			return nil, err
		}
		root := rec.begin("ladder", op, -1)
		sp := rec.begin("server.handler", op, root)
		serve(h, sk, newRequest(http.MethodPost, w.url, w.bodies[b]))
		rec.end(sp)
		if sk.status != http.StatusOK {
			return nil, fmt.Errorf("ladder handler: status %d", sk.status)
		}
		reqBytes += len(w.bodies[b])
		respBytes += len(sk.body)
		points += w.points[b]
		for _, s := range w.reqs[b].Series {
			in := cdt.NewSeries(s.Name, s.Values)
			sp = rec.begin("cdt.detect", op, root)
			dets, err := w.art.DetectExplained(ctx, in)
			rec.end(sp)
			if err != nil {
				return nil, err
			}
			sp = rec.begin("cdt.score", op, root)
			_, err = w.art.ScoreRanges(ctx, in)
			rec.end(sp)
			if err != nil {
				return nil, err
			}
			sp = rec.begin("timeseries.normalize", op, root)
			ns, err := normalized(in)
			rec.end(sp)
			if err != nil {
				return nil, err
			}
			for _, sc := range scales {
				ds := ns
				if pyramid {
					sp = rec.begin("fusion.resample", op, root)
					ds, err = sc.resample.Apply([]*cdt.Series{ns})
					rec.end(sp)
					if err != nil {
						return nil, err
					}
					sp = rec.begin("fusion.scale_detect", op, root)
					_, err = sc.model.DetectExplained(ctx, ds)
					rec.end(sp)
					if err != nil {
						return nil, err
					}
				}
				sp = rec.begin("pattern.label", op, root)
				labels, err = sc.pcfg.LabelSeriesInto(labels[:0], ds.Values)
				rec.end(sp)
				if err != nil {
					return nil, err
				}
				sp = rec.begin("engine.sweep", op, root)
				marks := sc.eng.Sweep(labels)
				rec.end(sp)
				windows += marks.NumWindows()
			}
			fired += len(dets)
			series++
		}
		rec.end(root)
		ops++
	}
	t := totals(rec)
	perOp := func(name string) float64 { return us(t.sum(name)) / float64(ops) }
	perSeries := func(name string) float64 { return us(t.sum(name)) / float64(series) }
	serverSelf := perOp("server.handler") - perOp("cdt.detect")
	fusionSelf := 0.0
	if pyramid {
		fusionSelf = perSeries("cdt.detect") - perSeries("timeseries.normalize") -
			perSeries("fusion.resample") - perSeries("fusion.scale_detect")
	}
	return []metric{
		{"server.self_us_per_op", serverSelf, "us"},
		{"server.self_ns_per_point", serverSelf * 1000 / (float64(points) / float64(ops)), "ns"},
		{"server.request_bytes_per_op", float64(reqBytes) / float64(ops), "B"},
		{"server.response_bytes_per_op", float64(respBytes) / float64(ops), "B"},
		{"cdt.detect_us_per_series", perSeries("cdt.detect"), "us"},
		{"cdt.score_us_per_series", perSeries("cdt.score"), "us"},
		{"cdt.render_us_per_series", perSeries("cdt.detect") - perSeries("cdt.score"), "us"},
		{"cdt.fired_windows_per_series", float64(fired) / float64(series), "count"},
		{"timeseries.normalize_us_per_series", perSeries("timeseries.normalize"), "us"},
		{"pattern.label_us_per_series", perSeries("pattern.label"), "us"},
		{"engine.sweep_us_per_series", perSeries("engine.sweep"), "us"},
		{"engine.windows_per_series", float64(windows) / float64(series), "count"},
		{"fusion.resample_us_per_series", perSeries("fusion.resample"), "us"},
		{"fusion.scale_detect_us_per_series", perSeries("fusion.scale_detect"), "us"},
		{"fusion.self_us_per_series", fusionSelf, "us"},
	}, nil
}
