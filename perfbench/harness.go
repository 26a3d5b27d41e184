package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"probgraph/internal/graph"
	"probgraph/internal/obs"
	"probgraph/internal/serve"
)

// server is the program's HTTP stack on a loopback listener: /v1/query
// through serve.QueryHandler over a Querier, everything else (ingest,
// stats) through serve.Handler.
type server struct {
	srv    *http.Server
	base   string
	served chan error
}

func startServer(eng *serve.Engine, qr serve.Querier) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	var h http.Handler = serve.QueryHandler(qr)
	if tq, ok := qr.(*timedQuerier); ok {
		h = tq.middleware(h)
	}
	mux := http.NewServeMux()
	mux.Handle("POST /v1/query", h)
	mux.Handle("/", serve.Handler(eng))
	s := &server{
		srv:    &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its Serve loop to return.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.served
}

// client is the load generator's HTTP side: at most procs connections,
// each counted in bytes both ways.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
	wire atomic.Int64
}

func newClient(base string, procs int) *client {
	c := &client{base: base}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	c.tr = &http.Transport{
		MaxConnsPerHost:     procs,
		MaxIdleConnsPerHost: procs,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: conn, n: &c.wire}, nil
		},
	}
	c.hc = &http.Client{Transport: c.tr, Timeout: 30 * time.Second}
	return c
}

func (c *client) close() { c.tr.CloseIdleConnections() }

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// engineHeader carries the Querier time of a traced request back to the
// client, so the client can split its time into HTTP and engine parts.
const engineHeader = "X-Perfbench-Engine-Ns"

// appendQuery writes q's /v1/query body.
func appendQuery(b []byte, q query) []byte {
	b = append(b, `{"op":"`...)
	b = append(b, q.op...)
	b = append(b, `","u":`...)
	b = strconv.AppendUint(b, uint64(q.u), 10)
	if q.op == "similarity" {
		b = append(b, `,"v":`...)
		b = strconv.AppendUint(b, uint64(q.v), 10)
	}
	if q.k > 0 {
		b = append(b, `,"k":`...)
		b = strconv.AppendInt(b, int64(q.k), 10)
	}
	return append(b, '}')
}

// reply is one /v1/query round trip as the client saw it.
type reply struct {
	res      serve.Result
	engineNS int64 // Querier time reported by a traced server, else 0
}

// query posts q; with decode set it also parses the answer.
func (c *client) query(q query, decode bool) (reply, error) {
	body := appendQuery(make([]byte, 0, 64), q)
	resp, err := c.hc.Post(c.base+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("%s %d: HTTP %d: %s", q.op, q.u, resp.StatusCode, bytes.TrimSpace(data))
	}
	var r reply
	if ns := resp.Header.Get(engineHeader); ns != "" {
		r.engineNS, _ = strconv.ParseInt(ns, 10, 64)
	}
	if decode {
		if err := json.Unmarshal(data, &r.res); err != nil {
			return reply{}, fmt.Errorf("decoding answer: %w", err)
		}
	}
	return r, nil
}

// ingest posts one edge batch and returns the epoch it produced.
func (c *client) ingest(add, del []graph.Edge) (serve.IngestResult, error) {
	wi := serve.WireIngest{Add: make([][2]uint32, len(add)), Del: make([][2]uint32, len(del))}
	for i, e := range add {
		wi.Add[i] = [2]uint32{e.U, e.V}
	}
	for i, e := range del {
		wi.Del[i] = [2]uint32{e.U, e.V}
	}
	body, err := json.Marshal(wi)
	if err != nil {
		return serve.IngestResult{}, err
	}
	resp, err := c.hc.Post(c.base+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.IngestResult{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return serve.IngestResult{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return serve.IngestResult{}, fmt.Errorf("ingest: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var res serve.IngestResult
	if err := json.Unmarshal(data, &res); err != nil {
		return serve.IngestResult{}, fmt.Errorf("decoding ingest result: %w", err)
	}
	return res, nil
}

// toServe converts a generated query to the engine's typed form.
func toServe(q query) (serve.Query, error) {
	op, err := serve.ParseOp(q.op)
	if err != nil {
		return serve.Query{}, err
	}
	return serve.Query{Op: op, U: q.u, V: q.v, K: q.k}, nil
}

// sameAnswer reports whether two answers are bit-identical.
func sameAnswer(a, b serve.Result) bool {
	if !sameFloat(a.Value, b.Value) || len(a.TopK) != len(b.TopK) || len(a.Neighbors) != len(b.Neighbors) {
		return false
	}
	for i := range a.TopK {
		if a.TopK[i].V != b.TopK[i].V || !sameFloat(a.TopK[i].Score, b.TopK[i].Score) {
			return false
		}
	}
	for i := range a.Neighbors {
		if a.Neighbors[i] != b.Neighbors[i] {
			return false
		}
	}
	return true
}

// timedQuerier wraps Engine.QueryCtx for traced runs: it installs the
// span tracer on every query context, times each call, splits the
// times by cache hit and miss, keeps a sample of the missed queries for
// the no-wait replay, and reports each call's time to the client.
type timedQuerier struct {
	eng *serve.Engine
	tr  *obs.Tracer

	mu     sync.Mutex
	hits   []float64 // µs
	misses []float64 // µs
	missQ  []serve.Query
}

type holderKey struct{}

// durHolder is where the Querier leaves its time for the middleware.
type durHolder struct{ ns atomic.Int64 }

func (t *timedQuerier) QueryCtx(ctx context.Context, q serve.Query) (serve.Result, error) {
	ctx = obs.WithTracer(ctx, t.tr)
	t0 := time.Now()
	r, err := t.eng.QueryCtx(ctx, q)
	d := time.Since(t0)
	if h, ok := ctx.Value(holderKey{}).(*durHolder); ok {
		h.ns.Store(int64(d))
	}
	if err == nil {
		t.mu.Lock()
		if r.Cached {
			t.hits = append(t.hits, micros(d))
		} else {
			t.misses = append(t.misses, micros(d))
			if len(t.missQ) < 4096 {
				t.missQ = append(t.missQ, q)
			}
		}
		t.mu.Unlock()
	}
	return r, err
}

// middleware hands each request a durHolder and writes its value into
// the response header before the body goes out.
func (t *timedQuerier) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := &durHolder{}
		ctx := context.WithValue(r.Context(), holderKey{}, h)
		next.ServeHTTP(&headerWriter{ResponseWriter: w, h: h}, r.WithContext(ctx))
	})
}

type headerWriter struct {
	http.ResponseWriter
	h     *durHolder
	wrote bool
}

func (w *headerWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote = true
		w.Header().Set(engineHeader, strconv.FormatInt(w.h.ns.Load(), 10))
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *headerWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(p)
}

// spanStats collects the durations (µs) of the named child spans across
// a tracer's journaled traces; prefix matching when name ends in '/'.
func spanStats(tr *obs.Tracer, name string) []float64 {
	var out []float64
	for _, t := range tr.Slow() {
		for _, s := range t.Spans {
			if s.Name == name || (name[len(name)-1] == '/' && len(s.Name) > len(name) && s.Name[:len(name)] == name) {
				out = append(out, s.DurUS)
			}
		}
	}
	return out
}

var errWrongAnswer = errors.New("wrong answer")
