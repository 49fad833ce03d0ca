package main

// The stream-push workload: nproc closed-loop clients push fixed-size
// bursts round-robin over a fixed set of sessions of a plain model, and
// every churnEvery-th op replaces one session (DELETE + POST /streams).
// Each client owns its own sessions, so a session's points arrive in
// order and its detections can be replayed exactly at the end.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sync"
	"time"

	cdt "cdt"
	"cdt/internal/engine"
	"cdt/internal/pattern"
	"cdt/internal/server"
)

// streamSizes sizes the stream workload.
type streamSizes struct {
	trainSensors, trainDays int // training set
	poolSensors, poolDays   int // scoring data, cut into bursts
	sessions                int // live sessions
	burst                   int // points per push
	churnEvery              int // every n-th op of a client replaces a session
}

var defaultStreamSizes = streamSizes{
	trainSensors: 8, trainDays: 600,
	poolSensors: 16, poolDays: 2048,
	sessions: 1024, burst: 32, churnEvery: 64,
}

// sessionRecord is one session's history: where in the burst pool it
// started, how many pushes it took, and the digest of their responses.
type sessionRecord struct {
	start, pushes int
	failed        int // pushes answered with a wrong status
	digest        uint64
}

// slot is one session position; churn replaces the session in it.
type slot struct {
	index, gen      int
	id              string
	pushURL, delURL *url.URL
	push            *reusableRequest
	rec             sessionRecord
}

type streamWorkload struct {
	sz      streamSizes
	workdir string
	name    string
	model   *cdt.Model
	srv     *server.Server
	dir     string
	h       http.Handler

	scale      cdt.Scale
	bursts     [][]float64
	bodies     [][]byte
	createURL  *url.URL
	createBody []byte

	cs []*streamClient

	// Set by finish.
	fired, windows, touched int
}

// streamClient owns the slots i, i+n, i+2n, ... of n clients.
type streamClient struct {
	w       *streamWorkload
	slots   []*slot
	next    int
	ops     int
	sink    *sink
	retired []sessionRecord
}

// startBurst is the pool position where the session in slot index,
// generation gen, starts reading.
func startBurst(index, gen, n int) int { return (index*31 + gen*977) % n }

func setupStream(cfg config, rec *recorder) (*streamWorkload, int, error) {
	sz := cfg.sizes.stream
	sp := rec.begin("setup.train", -1, -1)
	train := trainingSeries(sz.trainSensors, sz.trainDays)
	model, err := cdt.Fit(train, modelOptions)
	rec.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("training: %w", err)
	}
	sp = rec.begin("setup.data", -1, -1)
	var pool []float64
	for _, s := range scoringSeries(cfg.seed, sz.poolSensors, sz.poolDays) {
		pool = append(pool, s.Values...)
	}
	w := &streamWorkload{sz: sz, workdir: cfg.workdir, name: "calorie", model: model}
	w.scale = cdt.Scale{Min: pool[0], Max: pool[0]}
	for _, v := range pool {
		w.scale.Min = min(w.scale.Min, v)
		w.scale.Max = max(w.scale.Max, v)
	}
	for i := 0; i+sz.burst <= len(pool); i += sz.burst {
		b := pool[i : i+sz.burst]
		body, err := json.Marshal(wirePoints{Points: b})
		if err != nil {
			return nil, 0, err
		}
		w.bursts = append(w.bursts, b)
		w.bodies = append(w.bodies, body)
	}
	w.createURL = mustURL("/streams")
	if w.createBody, err = json.Marshal(map[string]any{"model": w.name, "min": w.scale.Min, "max": w.scale.Max}); err != nil {
		return nil, 0, err
	}
	rec.end(sp)
	sp = rec.begin("setup.load", -1, -1)
	if w.srv, w.dir, err = loadServer(cfg.workdir, w.name, model, 0); err != nil {
		return nil, 0, err
	}
	w.h = w.srv.Handler()
	n := runtime.GOMAXPROCS(0)
	for i := 0; i < n; i++ {
		w.cs = append(w.cs, &streamClient{w: w, sink: newSink()})
	}
	sk := newSink()
	for i := 0; i < sz.sessions; i++ {
		s := &slot{index: i, rec: sessionRecord{start: startBurst(i, 0, len(w.bursts))}}
		serve(w.h, sk, newRequest(http.MethodPost, w.createURL, w.createBody))
		if err := s.adopt(sk); err != nil {
			w.close()
			return nil, 0, err
		}
		c := w.cs[i%n]
		c.slots = append(c.slots, s)
	}
	rec.end(sp)
	// The first op: one push, checked against a library replay.
	c := w.cs[0]
	c.op(rec, -1)
	if !w.replay(c.slots[0].rec) {
		return w, 1, nil
	}
	return w, 0, nil
}

// adopt takes the session id from a POST /streams response.
func (s *slot) adopt(sk *sink) error {
	if sk.status != http.StatusCreated {
		return fmt.Errorf("creating stream: status %d: %s", sk.status, sk.body)
	}
	var resp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(sk.body, &resp); err != nil || resp.ID == "" {
		return fmt.Errorf("creating stream: bad response %q", sk.body)
	}
	s.id = resp.ID
	s.pushURL = mustURL("/streams/" + resp.ID + "/points")
	s.delURL = mustURL("/streams/" + resp.ID)
	s.push = newReusableRequest(s.pushURL)
	return nil
}

func (w *streamWorkload) clients() []client {
	out := make([]client, len(w.cs))
	for i, c := range w.cs {
		out[i] = c
	}
	return out
}

// warmups pushes into every session twice.
func (w *streamWorkload) warmups() int { return 2 * w.sz.sessions / len(w.cs) }

func (w *streamWorkload) close() {
	w.srv.Close()
	os.RemoveAll(w.dir)
}

func (c *streamClient) op(rec *recorder, id int64) opResult {
	w := c.w
	s := c.slots[c.next]
	c.ops++
	if c.ops%w.sz.churnEvery == 0 {
		return c.churn(rec, id, s)
	}
	c.next = (c.next + 1) % len(c.slots)
	b := (s.rec.start + s.rec.pushes) % len(w.bursts)
	root := rec.begin("op", id, -1)
	r := s.push.with(w.bodies[b])
	call := rec.begin("server.handler", id, root)
	lat := serve(w.h, c.sink, r)
	rec.end(call)
	s.rec.pushes++
	ok := c.sink.status == http.StatusOK
	if ok {
		s.rec.digest, ok = pushDigest(s.rec.digest, c.sink.body)
	}
	if !ok {
		s.rec.failed++
	}
	rec.end(root)
	return opResult{latency: lat, points: len(w.bursts[b]), ok: ok}
}

// churn replaces the session in s with a fresh one.
func (c *streamClient) churn(rec *recorder, id int64, s *slot) opResult {
	w := c.w
	root := rec.begin("op", id, -1)
	call := rec.begin("server.handler", id, root)
	lat := serve(w.h, c.sink, newRequest(http.MethodDelete, s.delURL, nil))
	ok := c.sink.status == http.StatusNoContent
	lat += serve(w.h, c.sink, newRequest(http.MethodPost, w.createURL, w.createBody))
	rec.end(call)
	c.retired = append(c.retired, s.rec)
	s.gen++
	s.rec = sessionRecord{start: startBurst(s.index, s.gen, len(w.bursts))}
	if err := s.adopt(c.sink); err != nil {
		fmt.Fprintf(os.Stderr, "cdtbench: churn: %v\n", err)
		ok = false
	}
	rec.end(root)
	return opResult{latency: lat, ok: ok}
}

// Digest keys, in the order a push response carries them.
const (
	keyPush = 1 + iota
	keyWindowStart
	keyWindowEnd
	keyIndex
	keyPointsConsumed
	keyReady
)

var digestKeys = map[string]int{
	"window_start":    keyWindowStart,
	"window_end":      keyWindowEnd,
	"index":           keyIndex,
	"points_consumed": keyPointsConsumed,
	"ready":           keyReady,
}

// fold mixes one keyed value into a running FNV-1a style digest.
func fold(h uint64, key int, v int64) uint64 {
	const prime = 1099511628211
	h = (h ^ uint64(key)) * prime
	return (h ^ uint64(v)) * prime
}

// pushDigest folds one push response into h: per detection its window
// range and fired rule indices, then points_consumed and ready. It
// reads only those keys, so it is cheap enough to run on every
// response, and it fails on a body it cannot scan.
func pushDigest(h uint64, body []byte) (uint64, bool) {
	h = fold(h, keyPush, 0)
	for i := 0; i < len(body); {
		if body[i] != '"' {
			i++
			continue
		}
		j := i + 1
		for j < len(body) && body[j] != '"' {
			if body[j] == '\\' {
				j++
			}
			j++
		}
		if j >= len(body) {
			return h, false
		}
		key := digestKeys[string(body[i+1:j])]
		i = skipSpace(body, j+1)
		if i >= len(body) || body[i] != ':' || key == 0 {
			continue
		}
		i = skipSpace(body, i+1)
		v, n, err := scanScalar(body[i:])
		if err != nil {
			return h, false
		}
		h = fold(h, key, v)
		i += n
	}
	return h, true
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// scanScalar reads an integer or a boolean (as 0/1) at the start of b.
func scanScalar(b []byte) (v int64, n int, err error) {
	switch {
	case len(b) >= 4 && string(b[:4]) == "true":
		return 1, 4, nil
	case len(b) >= 5 && string(b[:5]) == "false":
		return 0, 5, nil
	}
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		n = 1
	}
	start := n
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		v = v*10 + int64(b[n]-'0')
		n++
	}
	if n == start {
		return 0, 0, errors.New("no scalar")
	}
	if neg {
		v = -v
	}
	return v, n, nil
}

// expectedDigest replays a session's pushes through a fresh library
// stream and digests what the responses should have said. It also
// returns the detections and windows the replay saw.
func (w *streamWorkload) expectedDigest(r sessionRecord) (h uint64, fired, windows int) {
	st, err := w.model.NewStream(w.scale)
	if err != nil {
		return 0, 0, 0
	}
	for p := 0; p < r.pushes; p++ {
		h = fold(h, keyPush, 0)
		for _, v := range w.bursts[(r.start+p)%len(w.bursts)] {
			for _, d := range st.Push(v) {
				fired++
				h = fold(h, keyWindowStart, int64(d.WindowStart))
				h = fold(h, keyWindowEnd, int64(d.WindowEnd))
				for _, f := range d.Fired {
					h = fold(h, keyIndex, int64(f.Index))
				}
			}
		}
		h = fold(h, keyPointsConsumed, int64(st.Points()))
		ready := int64(0)
		if st.Ready() {
			ready = 1
		}
		h = fold(h, keyReady, ready)
	}
	if n := st.Points() - w.model.Opts.Omega; n > 0 {
		windows = n
	}
	return h, fired, windows
}

// replay reports whether a session's responses match the library.
func (w *streamWorkload) replay(r sessionRecord) bool {
	h, _, _ := w.expectedDigest(r)
	return r.failed == 0 && h == r.digest
}

// finish replays every session, live and retired, through the library
// and counts the pushes of sessions whose responses differ.
// Each client's sessions replay on their own goroutine.
func (w *streamWorkload) finish() int {
	type tally struct{ failed, fired, windows, touched int }
	tallies := make([]tally, len(w.cs))
	var wg sync.WaitGroup
	for i, c := range w.cs {
		wg.Add(1)
		go func(t *tally, c *streamClient) {
			defer wg.Done()
			recs := append([]sessionRecord(nil), c.retired...)
			for _, s := range c.slots {
				recs = append(recs, s.rec)
			}
			for _, r := range recs {
				h, fired, windows := w.expectedDigest(r)
				t.fired += fired
				t.windows += windows
				if r.pushes > 0 {
					t.touched++
				}
				if h != r.digest {
					t.failed += r.pushes - r.failed
				}
			}
		}(&tallies[i], c)
	}
	wg.Wait()
	failed := 0
	for _, t := range tallies {
		failed += t.failed
		w.fired += t.fired
		w.windows += t.windows
		w.touched += t.touched
	}
	return failed
}

func (w *streamWorkload) props() []metric {
	var values, short int
	for _, b := range w.bursts {
		values += len(b)
		short += shortFloats(b)
	}
	return []metric{
		{"server.short_float_share", ratio(short, values), "ratio"},
		{"input.fire_rate", ratio(w.fired, w.windows), "ratio"},
		{"input.session_working_set", float64(w.touched), "count"},
	}
}

// ladder times, per burst, the handler of a second server, Session.Push
// on a benchmark-owned session manager, Stream.Push on bare library
// streams and Cursor.Step on bare engine cursors, all over the same
// burst sequence, plus session churn on the manager.
func (w *streamWorkload) ladder(rec *recorder, until time.Time) ([]metric, error) {
	srv, dir, err := loadServer(w.workdir, w.name, w.model, 0)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer srv.Close()
	h, sk := srv.Handler(), newSink()
	mgr := server.NewSessions(0, nil)
	defer mgr.Close()
	eng := engine.Compile(w.model.Rule(), w.model.Opts.Omega)
	pcfg := labelConfig(w.model.Opts)
	n := w.sz.sessions
	pushURLs := make([]*url.URL, n)
	sessions := make([]*server.Session, n)
	streams := make([]*cdt.Stream, n)
	cursors := make([]*engine.Cursor, n)
	labels := make([][]pattern.Label, len(w.bursts))
	for b, burst := range w.bursts {
		norm := make([]float64, len(burst))
		for i, v := range burst {
			norm[i] = min(max((v-w.scale.Min)/(w.scale.Max-w.scale.Min), 0), 1)
		}
		if labels[b], err = pcfg.LabelSeries(norm); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		var s slot
		serve(h, sk, newRequest(http.MethodPost, w.createURL, w.createBody))
		if err := s.adopt(sk); err != nil {
			return nil, err
		}
		pushURLs[i] = s.pushURL
		if sessions[i], err = mgr.Create(w.name, w.model, w.scale, nil, nil, nil); err != nil {
			return nil, err
		}
		if streams[i], err = w.model.NewStream(w.scale); err != nil {
			return nil, err
		}
		cursors[i] = eng.NewCursor()
	}
	ctx := context.Background()
	pushes := make([]int, n)
	var ops, points, steps, reqBytes, respBytes int
	for op := int64(0); int(op) < n || (op < maxLadderOps && time.Now().Before(until)); op++ {
		i := int(op) % n
		b := (startBurst(i, 0, len(w.bursts)) + pushes[i]) % len(w.bursts)
		pushes[i]++
		root := rec.begin("ladder", op, -1)
		sp := rec.begin("server.handler", op, root)
		serve(h, sk, newRequest(http.MethodPost, pushURLs[i], w.bodies[b]))
		rec.end(sp)
		if sk.status != http.StatusOK {
			return nil, fmt.Errorf("ladder push: status %d", sk.status)
		}
		sp = rec.begin("sessions.push", op, root)
		sessions[i].Push(ctx, w.bursts[b])
		rec.end(sp)
		sp = rec.begin("cdt.stream_push", op, root)
		for _, v := range w.bursts[b] {
			streams[i].Push(v)
		}
		rec.end(sp)
		sp = rec.begin("engine.step", op, root)
		for _, l := range labels[b] {
			cursors[i].Step(l)
		}
		rec.end(sp)
		if int(op)%w.sz.churnEvery == w.sz.churnEvery-1 {
			sp = rec.begin("sessions.churn", op, root)
			mgr.Delete(sessions[i].ID)
			sessions[i], err = mgr.Create(w.name, w.model, w.scale, nil, nil, nil)
			rec.end(sp)
			if err != nil {
				return nil, err
			}
		}
		rec.end(root)
		ops++
		points += len(w.bursts[b])
		steps += len(labels[b])
		reqBytes += len(w.bodies[b])
		respBytes += len(sk.body)
	}
	t := totals(rec)
	perOp := func(name string) float64 { return us(t.sum(name)) / float64(ops) }
	serverSelf := perOp("server.handler") - perOp("sessions.push")
	churn := 0.0
	if k := t.count("sessions.churn"); k > 0 {
		churn = us(t.sum("sessions.churn")) / float64(k)
	}
	return []metric{
		{"server.self_us_per_op", serverSelf, "us"},
		{"server.self_ns_per_point", serverSelf * 1000 * float64(ops) / float64(points), "ns"},
		{"server.request_bytes_per_op", float64(reqBytes) / float64(ops), "B"},
		{"server.response_bytes_per_op", float64(respBytes) / float64(ops), "B"},
		{"sessions.push_us_per_op", perOp("sessions.push"), "us"},
		{"sessions.self_us_per_op", perOp("sessions.push") - perOp("cdt.stream_push"), "us"},
		{"sessions.churn_us_per_op", churn, "us"},
		{"cdt.stream_push_ns_per_point", float64(t.sum("cdt.stream_push")) / float64(points), "ns"},
		{"engine.step_ns_per_point", float64(t.sum("engine.step")) / float64(steps), "ns"},
	}, nil
}
