package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mindetail/internal/faultinject"
	"mindetail/internal/maintain"
	"mindetail/internal/pager"
	"mindetail/internal/tuple"
	"mindetail/internal/wal"
)

// maxKeptSpans caps the spans kept for the span file; counts and
// self-time accounting still cover every span.
const maxKeptSpans = 50_000

// span is one timed call into a layer: its name, when it started and
// ended (ns since the tracer's epoch), the span that caused it (0 for a
// root), and the correlation id shared by every span of one request or
// delta.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Corr   uint64 `json:"corr,omitempty"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory while on. The single-caller workloads
// open one root span per ApplyDelta; spans recorded while it is open
// (from any goroutine the call fans out to) become its children.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Uint64
	root  atomic.Uint64 // id of the open root span, 0 when none

	mu       sync.Mutex
	kept     []span
	total    int64
	children []span // spans recorded under the open root
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), kept: make([]span, 0, maxKeptSpans), children: make([]span, 0, 1024)}
}

// record files a finished span; under an open root it becomes a child.
func (t *tracer) record(s span) {
	s.ID = t.ids.Add(1)
	t.mu.Lock()
	if r := t.root.Load(); r != 0 {
		if s.Parent == 0 {
			s.Parent = r
		}
		s.Corr = r
		t.children = append(t.children, s)
	}
	t.keep(s)
	t.mu.Unlock()
}

// keep appends s to the span file's contents. Callers hold t.mu.
func (t *tracer) keep(s span) {
	t.total++
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, s)
	}
}

// openRoot starts a root span and returns its id.
func (t *tracer) openRoot() uint64 {
	id := t.ids.Add(1)
	t.root.Store(id)
	return id
}

// closeRoot files the root span and returns the children recorded under
// it, in start order.
func (t *tracer) closeRoot(root span) []span {
	t.mu.Lock()
	t.root.Store(0)
	kids := append([]span(nil), t.children...)
	t.children = t.children[:0]
	t.keep(root)
	t.mu.Unlock()
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	return kids
}

// write stores the kept spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// spans returns the number of spans recorded.
func (t *tracer) spans() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// union returns the total length of the union of the spans' intervals.
func union(ss []span) int64 {
	if len(ss) == 0 {
		return 0
	}
	iv := make([][2]int64, len(ss))
	for i, s := range ss {
		iv[i] = [2]int64{s.Start, s.End}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// ioStats counts the calls a wrapper forwarded while tracing was on.
type ioStats struct {
	calls atomic.Int64
	ns    atomic.Int64
	bytes atomic.Int64
}

func (s *ioStats) add(start time.Time, n int) time.Time {
	end := time.Now()
	s.calls.Add(1)
	s.ns.Add(int64(end.Sub(start)))
	s.bytes.Add(int64(n))
	return end
}

// wireStats accumulates the traced listener's server-side socket calls.
type wireStats struct {
	reads, headerReads, writes ioStats
}

// tracedListener hands wire.Serve connections whose Read and Write calls
// are counted and timed while tracing is on.
type tracedListener struct {
	net.Listener
	t  *tracer
	st *wireStats
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, t: l.t, st: l.st}, nil
}

type tracedConn struct {
	net.Conn
	t  *tracer
	st *wireStats
}

// frameHeaderLen is the wire frame header the server reads on its own
// before each payload; that read blocks until the client sends, so it is
// counted apart from the reads that move a request's bytes.
const frameHeaderLen = 8

func (c *tracedConn) Read(b []byte) (int, error) {
	if !c.t.on.Load() {
		return c.Conn.Read(b)
	}
	start := time.Now()
	n, err := c.Conn.Read(b)
	st, name := &c.st.reads, "wire.read"
	if len(b) == frameHeaderLen {
		st, name = &c.st.headerReads, "wire.read_header"
	}
	end := st.add(start, n)
	c.t.record(span{Name: name, Start: int64(start.Sub(c.t.epoch)), End: int64(end.Sub(c.t.epoch))})
	return n, err
}

func (c *tracedConn) Write(b []byte) (int, error) {
	if !c.t.on.Load() {
		return c.Conn.Write(b)
	}
	start := time.Now()
	n, err := c.Conn.Write(b)
	end := c.st.writes.add(start, n)
	c.t.record(span{Name: "wire.write", Start: int64(start.Sub(c.t.epoch)), End: int64(end.Sub(c.t.epoch))})
	return n, err
}

// walStats accumulates the traced change log's calls.
type walStats struct {
	begins, commits ioStats
	deltas, fsyncs  atomic.Int64
}

// tracedLog is a warehouse.ChangeLog over a *wal.Log that times every
// call while tracing is on. It implements warehouse.BatchCommitter too:
// without it the warehouse would fall back to one fsync per delta and the
// wrapper would change the program it measures.
type tracedLog struct {
	l  *wal.Log
	t  *tracer
	st *walStats
}

func (tl *tracedLog) timed(name string, start time.Time, st *ioStats) {
	end := st.add(start, 0)
	tl.t.record(span{Name: name, Start: int64(start.Sub(tl.t.epoch)), End: int64(end.Sub(tl.t.epoch))})
}

func (tl *tracedLog) BeginDelta(d maintain.Delta, srcApplied bool) (uint64, error) {
	if !tl.t.on.Load() {
		return tl.l.BeginDelta(d, srcApplied)
	}
	start := time.Now()
	lsn, err := tl.l.BeginDelta(d, srcApplied)
	tl.timed("wal.begin_delta", start, &tl.st.begins)
	return lsn, err
}

func (tl *tracedLog) BeginDDL(sql string) (uint64, error) {
	if !tl.t.on.Load() {
		return tl.l.BeginDDL(sql)
	}
	start := time.Now()
	lsn, err := tl.l.BeginDDL(sql)
	tl.timed("wal.begin_ddl", start, &tl.st.begins)
	return lsn, err
}

func (tl *tracedLog) Commit(lsn uint64) error {
	if !tl.t.on.Load() {
		return tl.l.Commit(lsn)
	}
	start := time.Now()
	err := tl.l.Commit(lsn)
	tl.timed("wal.commit", start, &tl.st.commits)
	tl.st.deltas.Add(1)
	tl.st.fsyncs.Add(1)
	return err
}

func (tl *tracedLog) CommitBatch(lsns []uint64) error {
	if !tl.t.on.Load() {
		return tl.l.CommitBatch(lsns)
	}
	start := time.Now()
	err := tl.l.CommitBatch(lsns)
	tl.timed("wal.commit_batch", start, &tl.st.commits)
	tl.st.deltas.Add(int64(len(lsns)))
	tl.st.fsyncs.Add(1)
	return err
}

func (tl *tracedLog) Abort(lsn uint64) error {
	if !tl.t.on.Load() {
		return tl.l.Abort(lsn)
	}
	start := time.Now()
	err := tl.l.Abort(lsn)
	tl.timed("wal.abort", start, &tl.st.commits)
	return err
}

// tracedStore is a maintain.AuxStore over a *pager.Store that forwards
// every method, and times each call while tracing is on. Its spans carry
// the view the store belongs to, so they nest under that view's
// maintenance span.
type tracedStore struct {
	s    *pager.Store
	view string
	t    *tracer
	st   *ioStats
}

func (ts *tracedStore) done(name string, start time.Time) {
	end := ts.st.add(start, 0)
	ts.t.record(span{Name: name, Tag: ts.view, Start: int64(start.Sub(ts.t.epoch)), End: int64(end.Sub(ts.t.epoch))})
}

func (ts *tracedStore) Get(key []byte) (tuple.Tuple, bool, error) {
	if !ts.t.on.Load() {
		return ts.s.Get(key)
	}
	start := time.Now()
	r, ok, err := ts.s.Get(key)
	ts.done("pager.get", start)
	return r, ok, err
}

func (ts *tracedStore) GetString(key string) (tuple.Tuple, bool, error) {
	if !ts.t.on.Load() {
		return ts.s.GetString(key)
	}
	start := time.Now()
	r, ok, err := ts.s.GetString(key)
	ts.done("pager.get", start)
	return r, ok, err
}

func (ts *tracedStore) Put(key []byte, row tuple.Tuple) error {
	if !ts.t.on.Load() {
		return ts.s.Put(key, row)
	}
	start := time.Now()
	err := ts.s.Put(key, row)
	ts.done("pager.put", start)
	return err
}

func (ts *tracedStore) PutString(key string, row tuple.Tuple) error {
	if !ts.t.on.Load() {
		return ts.s.PutString(key, row)
	}
	start := time.Now()
	err := ts.s.PutString(key, row)
	ts.done("pager.put", start)
	return err
}

func (ts *tracedStore) DeleteString(key string) error {
	if !ts.t.on.Load() {
		return ts.s.DeleteString(key)
	}
	start := time.Now()
	err := ts.s.DeleteString(key)
	ts.done("pager.delete", start)
	return err
}

func (ts *tracedStore) Scan(fn func(key string, row tuple.Tuple) error) error {
	if !ts.t.on.Load() {
		return ts.s.Scan(fn)
	}
	start := time.Now()
	err := ts.s.Scan(fn)
	ts.done("pager.scan", start)
	return err
}

func (ts *tracedStore) Clear(sizeHint int) error {
	if !ts.t.on.Load() {
		return ts.s.Clear(sizeHint)
	}
	start := time.Now()
	err := ts.s.Clear(sizeHint)
	ts.done("pager.clear", start)
	return err
}

func (ts *tracedStore) Len() int      { return ts.s.Len() }
func (ts *tracedStore) Bytes() int    { return ts.s.Bytes() }
func (ts *tracedStore) InPlace() bool { return ts.s.InPlace() }
func (ts *tracedStore) Err() error    { return ts.s.Err() }
func (ts *tracedStore) Close() error  { return ts.s.Close() }

// SetFaultHook forwards the optional fault-injection seam the engine
// looks for on its stores.
func (ts *tracedStore) SetFaultHook(h *faultinject.Hook) { ts.s.SetFaultHook(h) }
