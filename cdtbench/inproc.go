package main

// In-process HTTP plumbing: requests go straight into the server's
// handler, so a timed call covers cdtserve's own work — middleware,
// routing, decode, scoring, encode — and no socket, client library or
// response decoding.

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"time"

	cdt "cdt"
	"cdt/internal/server"
)

// sink is a reusable http.ResponseWriter. It keeps the status and body
// of the last response, so the client can check them after the timed
// call, and otherwise discards everything.
type sink struct {
	header http.Header
	status int
	body   []byte
}

func newSink() *sink { return &sink{header: http.Header{}} }

func (s *sink) Header() http.Header { return s.header }

func (s *sink) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
}

func (s *sink) Write(p []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	s.body = append(s.body, p...)
	return len(p), nil
}

func (s *sink) reset() {
	clear(s.header)
	s.status = 0
	s.body = s.body[:0]
}

// newRequest builds a server-side request for the handler, as net/http
// would hand it over after reading the request line and headers.
func newRequest(method string, u *url.URL, body []byte) *http.Request {
	r := &http.Request{
		Method:     method,
		URL:        u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     http.Header{},
		Host:       "cdtbench",
		RequestURI: u.RequestURI(),
		Body:       http.NoBody,
	}
	if body != nil {
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.ContentLength = int64(len(body))
		r.Header.Set("Content-Type", "application/json")
	}
	return r
}

// reusableRequest is a POST to one URL whose body is swapped between
// calls, so a client that sends many bodies there builds the request
// once. The server only reads the request, and wraps its body in a
// shallow copy, so the same request serves every call.
type reusableRequest struct {
	req  *http.Request
	body *bytes.Reader
}

func newReusableRequest(u *url.URL) *reusableRequest {
	body := bytes.NewReader(nil)
	r := newRequest(http.MethodPost, u, []byte{})
	r.Body = io.NopCloser(body)
	return &reusableRequest{req: r, body: body}
}

// with rewinds the request onto body and returns it.
func (r *reusableRequest) with(body []byte) *http.Request {
	r.body.Reset(body)
	r.req.ContentLength = int64(len(body))
	return r.req
}

// serve runs one request through h into w and returns the call's wall
// time.
func serve(h http.Handler, w *sink, r *http.Request) time.Duration {
	w.reset()
	start := time.Now()
	h.ServeHTTP(w, r)
	return time.Since(start)
}

// mustURL parses a path the benchmark itself built.
func mustURL(path string) *url.URL {
	u, err := url.Parse(path)
	if err != nil {
		panic("cdtbench: bad request path " + path + ": " + err.Error())
	}
	return u
}

// loadServer saves the artifact under name into a fresh model directory
// below workdir and starts a server over it — the path a deployment
// takes from a trained model to a serving process. Tracing and access
// logs stay off; Workers keeps its default (GOMAXPROCS) when workers is
// 0.
func loadServer(workdir, name string, art cdt.Artifact, workers int) (*server.Server, string, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, "", err
	}
	dir, err := os.MkdirTemp(workdir, "models-")
	if err != nil {
		return nil, "", err
	}
	f, err := os.Create(filepath.Join(dir, name+".json"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	err = art.Save(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	srv, err := server.New(server.Config{ModelDir: dir, Workers: workers})
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return srv, dir, nil
}
