package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mindetail/internal/maintain"
	"mindetail/internal/persist"
	"mindetail/internal/storage"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
	"mindetail/internal/wal"
	"mindetail/internal/warehouse"
	"mindetail/internal/wire"
	"mindetail/internal/workload"
)

// The serve workload's traffic.
const (
	// serveRate is the open-loop phase's offered rate, requests/s: about a
	// fifth of the closed-loop rate, busy enough that the server's threads
	// stay awake between requests, so QUERY latency measures the server
	// rather than how fast the host wakes a parked thread.
	serveRate     = 5000
	serveApplyPct = 10 // percent of requests that are APPLY
	serveConns    = 2
	serveView     = "product_sales"
	windows       = 10    // per measured phase; each phase reports its windows' median
	satDeltas     = 24000 // APPLYs of the APPLY-only closed loops, over all rounds
	mixedRate     = 25000 // nominal request rate that sizes the mixed closed loops
	serveRecovers = 5     // recoveries of the run's log; recover_s is their median
	traceWindow   = 400 * time.Millisecond
	// satWindow is how many requests each connection keeps in flight in
	// the closed-loop phases: the server's per-session in-flight cap.
	satWindow = wire.DefaultMaxInFlight
	// liveCap bounds the sales a connection's APPLYs have inserted and not
	// yet deleted: once it is reached, each APPLY deletes the oldest one
	// instead of inserting. The view's groups then keep their size, so a
	// run does the same work from start to end and recovery replays a log
	// whose deltas cost the same. satWindow < liveCap keeps a delete from
	// overtaking the insert it undoes.
	liveCap = 2 * satWindow
)

// server is one durable warehouse served on loopback, with the driver's
// connections to it.
type server struct {
	dir   string
	d     *wal.Durable
	w     *warehouse.Warehouse
	srv   *wire.Server
	conns []*client
}

func (s *server) close() error {
	for _, c := range s.conns {
		c.c.Close()
	}
	var err error
	if s.srv != nil {
		err = s.srv.Close()
	}
	if cerr := s.d.Close(); err == nil {
		err = cerr
	}
	return err
}

// client is one pipelined driver connection.
type client struct {
	c      net.Conn
	br     *bufio.Reader
	nextID uint64
	rng    *rand.Rand
	live   []tuple.Tuple // sales inserted by this connection's APPLYs, oldest first
}

func dial(addr string, seed int64) (*client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	hello := wire.AppendFrame(append([]byte(nil), wire.Magic...),
		wire.Frame{Kind: wire.KindHello, Body: wire.AppendHello(nil, "")})
	if _, err := c.Write(hello); err != nil {
		c.Close()
		return nil, err
	}
	br := bufio.NewReader(c)
	f, _, err := wire.ReadFrame(br, nil, 0)
	if err != nil || f.Kind != wire.KindOK {
		c.Close()
		return nil, fmt.Errorf("handshake: kind %v, %v", f.Kind, err)
	}
	return &client{c: c, br: br, nextID: 1, rng: rand.New(rand.NewSource(seed))}, nil
}

// serveRun is one run of the serve workload.
type serveRun struct {
	cfg  config
	rep  *report
	rng  *rand.Rand
	csv  map[string][]byte
	p    workload.RetailParams
	s    *server
	want int // rows every QUERY must return

	nextSale atomic.Int64
	acked    int64 // APPLYs acknowledged OK

	t    *tracer
	wire *wireStats
	wal  *walStats
	log  *tracedLog
}

func runServe(cfg config) (*report, error) {
	p := serveParams(cfg.seed)
	src, err := newRetailSource(p)
	if err != nil {
		return nil, err
	}
	r := &serveRun{cfg: cfg, rep: newReport(), rng: rand.New(rand.NewSource(cfg.seed)), p: p, csv: retailCSV(src)}
	r.nextSale.Store(int64(src.Table("sale").Len()))
	if cfg.trace {
		r.t, r.wire, r.wal = newTracer(), &wireStats{}, &walStats{}
	}
	if err := repeatSetup(r.rep, func(i int) (setupTimes, error) {
		if r.s != nil {
			if err := r.s.close(); err != nil {
				return setupTimes{}, err
			}
		}
		return r.setup(filepath.Join(cfg.dir, fmt.Sprintf("wal-%d", i)))
	}); err != nil {
		return nil, err
	}
	rel, err := r.s.w.Query(serveView)
	if err != nil {
		return nil, err
	}
	r.want = len(rel.Rows)
	if err := r.measure(); err != nil {
		r.s.close()
		return nil, err
	}
	return r.rep, r.finish()
}

// serveParams sizes the served star: about 30 sales per month-group, so
// each APPLY's maintenance is tiny and wire framing, the pipeline and the
// WAL fsync carry the work.
func serveParams(seed int64) workload.RetailParams {
	return workload.RetailParams{Days: 730, Stores: 1, Products: 20, ProductsSoldPerDay: 1,
		TransactionsPerProduct: 1, Brands: 10, SelectYear: 1997, Seed: seed}
}

// retailCSV renders src's tables as header-less CSV in schema order, with
// sale prices rounded to multiples of 0.25: binary fractions keep every
// SUM exact, so live and recovered state can be compared byte for byte.
func retailCSV(src *storage.DB) map[string][]byte {
	out := map[string][]byte{}
	for _, t := range retailTables {
		var b bytes.Buffer
		cw := csv.NewWriter(&b)
		for _, row := range src.Table(t).All() {
			rec := make([]string, len(row))
			for i, v := range row {
				switch v.Kind() {
				case types.KindInt:
					rec[i] = strconv.FormatInt(v.AsInt(), 10)
				case types.KindFloat:
					rec[i] = strconv.FormatFloat(math.Round(v.AsFloat()*4)/4, 'g', -1, 64)
				default:
					rec[i] = v.AsString()
				}
			}
			_ = cw.Write(rec) // writes to a bytes.Buffer
		}
		cw.Flush()
		out[t] = b.Bytes()
	}
	return out
}

// setup builds the served warehouse from empty: open the WAL directory,
// create the schema, load the sources through the logged ImportCSV path,
// create the view, listen, and dial the driver's connections.
func (r *serveRun) setup(dir string) (setupTimes, error) {
	var st setupTimes
	start := time.Now()
	d, err := wal.Open(dir, wal.Options{Sync: wal.SyncCommit})
	if err != nil {
		return st, err
	}
	s := &server{dir: dir, d: d, w: d.Warehouse()}
	r.s = s
	if r.t != nil {
		r.log = &tracedLog{l: d.Log(), t: r.t, st: r.wal}
		s.w.SetWAL(r.log)
	}
	if _, err := s.w.Exec(workload.DDL()); err != nil {
		return st, err
	}
	loadStart := time.Now()
	for _, t := range retailTables {
		if _, err := s.w.ImportCSV(t, bytes.NewReader(r.csv[t]), false); err != nil {
			return st, fmt.Errorf("loading %s: %w", t, err)
		}
	}
	st.load = time.Since(loadStart)
	viewStart := time.Now()
	if _, err := s.w.Exec("CREATE MATERIALIZED VIEW " + serveView + " AS " + workload.ProductSalesSQL(r.p.SelectYear)); err != nil {
		return st, err
	}
	st.createView = time.Since(viewStart)
	if err := r.listen(); err != nil {
		return st, err
	}
	st.total = time.Since(start)
	return st, nil
}

// listen serves r.s.w on a loopback port, wrapping the listener when
// traced, and dials the driver's connections.
func (r *serveRun) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	if r.t != nil {
		ln = &tracedListener{Listener: ln, t: r.t, st: r.wire}
	}
	r.s.srv = wire.Serve(r.s.w, ln, wire.Config{})
	for i := 0; i < serveConns; i++ {
		c, err := dial(ln.Addr().String(), r.cfg.seed*31+int64(i))
		if err != nil {
			return err
		}
		r.s.conns = append(r.s.conns, c)
	}
	return nil
}

// applyFrame encodes c's next APPLY: a one-row sale insert into the
// view's year, priced in multiples of 0.25, or, once c has liveCap sales
// outstanding, the delete of its oldest.
func (r *serveRun) applyFrame(dst []byte, c *client) []byte {
	var d maintain.Delta
	if len(c.live) >= liveCap {
		d = maintain.Delta{Table: "sale", Deletes: []tuple.Tuple{c.live[0]}}
		c.live = c.live[1:]
	} else {
		row := tuple.Tuple{
			types.Int(r.nextSale.Add(1)),
			types.Int(int64(c.rng.Intn(r.p.Days/2) + 1)),
			types.Int(int64(c.rng.Intn(r.p.Products) + 1)),
			types.Int(int64(c.rng.Intn(r.p.Stores) + 1)),
			types.Float(float64(c.rng.Intn(200)+1) * 0.25),
		}
		c.live = append(c.live, row)
		d = maintain.Delta{Table: "sale", Inserts: []tuple.Tuple{row}}
	}
	f := wire.AppendFrame(dst, wire.Frame{Kind: wire.KindApply, ID: c.nextID, Body: wire.AppendDeltaBody(nil, d)})
	c.nextID++
	return f
}

// request is one scheduled request of an open-loop phase.
type request struct {
	at    time.Duration // when it is due, from the phase start
	apply bool
	frame []byte
}

// phase is the outcome of one open-loop phase.
type phase struct {
	query, apply, lag durations
	sent, failed      int64
}

// openLoop offers rate requests/s for dur, spread round-robin over the
// connections, each sent when due whether or not earlier ones were
// answered. Latency runs from when a request was due to when its
// response was read, so a stall also counts against the requests queued
// behind it.
func (r *serveRun) openLoop(rate float64, dur time.Duration) (*phase, error) {
	n := int(rate * dur.Seconds())
	scheds := make([][]request, len(r.s.conns))
	bases := make([]uint64, len(r.s.conns))
	for i, c := range r.s.conns {
		bases[i] = c.nextID
	}
	query := func(id uint64) []byte {
		return wire.AppendFrame(nil, wire.Frame{Kind: wire.KindQuery, ID: id, Body: wire.AppendStringBody(nil, serveView)})
	}
	for k := 0; k < n; k++ {
		ci := k % len(r.s.conns)
		c := r.s.conns[ci]
		rq := request{at: time.Duration(float64(k) / rate * float64(time.Second))}
		if r.rng.Intn(100) < serveApplyPct {
			rq.apply = true
			rq.frame = r.applyFrame(nil, c)
		} else {
			rq.frame = query(c.nextID)
			c.nextID++
		}
		scheds[ci] = append(scheds[ci], rq)
	}

	results := make([]phase, len(r.s.conns))
	errs := make([]error, 2*len(r.s.conns))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, c := range r.s.conns {
		i, c, sched := i, c, scheds[i]
		res := &results[i]
		res.lag = make(durations, len(sched))
		wg.Add(2)
		go func() {
			defer wg.Done()
			errs[2*i] = sendOnSchedule(c, t0, sched, res.lag)
		}()
		go func() {
			defer wg.Done()
			errs[2*i+1] = r.readResponses(c, t0, bases[i], sched, res, dur)
		}()
	}
	wg.Wait()
	out := &phase{}
	for i := range results {
		if errs[2*i] != nil {
			return nil, errs[2*i]
		}
		if errs[2*i+1] != nil {
			return nil, errs[2*i+1]
		}
		out.query = append(out.query, results[i].query...)
		out.apply = append(out.apply, results[i].apply...)
		out.lag = append(out.lag, results[i].lag...)
		out.sent += int64(len(scheds[i]))
		out.failed += results[i].failed
	}
	r.rep.attempted += out.sent
	r.rep.failed += out.failed
	r.acked += int64(len(out.apply))
	return out, nil
}

// sendOnSchedule writes every request once it is due, batching those due
// together into one write, and records how late each was sent.
func sendOnSchedule(c *client, t0 time.Time, sched []request, lag durations) error {
	p, err := newPacer()
	if err != nil {
		return err
	}
	defer p.close()
	var buf []byte
	for i := 0; i < len(sched); {
		now := time.Since(t0)
		buf = buf[:0]
		for i < len(sched) && sched[i].at <= now {
			buf = append(buf, sched[i].frame...)
			lag[i] = now - sched[i].at
			i++
		}
		if len(buf) > 0 {
			if _, err := c.c.Write(buf); err != nil {
				return err
			}
		}
		if i < len(sched) {
			if d := sched[i].at - time.Since(t0); d > 0 {
				if err := p.sleep(d); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// readResponses reads one response per scheduled request and checks it:
// an APPLY must be acknowledged OK, a QUERY must return the view's rows.
func (r *serveRun) readResponses(c *client, t0 time.Time, base uint64, sched []request, res *phase, dur time.Duration) error {
	if err := c.c.SetReadDeadline(t0.Add(dur + 30*time.Second)); err != nil {
		return err
	}
	var buf []byte
	for got := 0; got < len(sched); got++ {
		var f wire.Frame
		var err error
		f, buf, err = wire.ReadFrame(c.br, buf, 0)
		if err != nil {
			return fmt.Errorf("reading responses: %w", err)
		}
		now := time.Since(t0)
		k := int(f.ID - base)
		if f.ID < base || k >= len(sched) {
			return fmt.Errorf("response for unknown request id %d", f.ID)
		}
		lat := now - sched[k].at
		switch {
		case sched[k].apply && f.Kind == wire.KindOK:
			res.apply = append(res.apply, lat)
		case !sched[k].apply && f.Kind == wire.KindResult && r.validResult(f.Body):
			res.query = append(res.query, lat)
		default:
			res.failed++
		}
	}
	return nil
}

func (r *serveRun) validResult(body []byte) bool {
	rs, err := wire.DecodeResultBody(body)
	return err == nil && rs != nil && len(rs.Rows) == r.want
}

// closedLoop keeps satWindow requests in flight on every connection,
// queryPct percent of them QUERY and the rest APPLY, until dur has passed
// (dur > 0) or each connection has sent perConn requests (perConn > 0).
// It returns how many completed and how many of those were acknowledged
// APPLYs. With queries it measures the request rate the server sustains;
// APPLY-only, the durable delta rate, when group commit always has a
// queue to batch.
func (r *serveRun) closedLoop(dur time.Duration, perConn int64, queryPct int) (done, applied int64, elapsed time.Duration, err error) {
	var wg sync.WaitGroup
	n := len(r.s.conns)
	completed := make([]int64, n)
	acked := make([]int64, n)
	failed := make([]int64, n)
	errs := make([]error, n)
	t0 := time.Now()
	deadline := t0.Add(dur)
	readBy := deadline.Add(30 * time.Second)
	if dur <= 0 {
		readBy = t0.Add(time.Minute)
	}
	for i, c := range r.s.conns {
		i, c := i, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sent int64
			more := func() bool {
				return (perConn <= 0 || sent < perConn) && (dur <= 0 || time.Now().Before(deadline))
			}
			// isApply remembers each in-flight request's kind by id.
			isApply := make(map[uint64]bool, satWindow)
			next := func(dst []byte) []byte {
				sent++
				id := c.nextID
				isApply[id] = c.rng.Intn(100) >= queryPct
				if isApply[id] {
					return r.applyFrame(dst, c)
				}
				c.nextID++
				return wire.AppendFrame(dst, wire.Frame{Kind: wire.KindQuery, ID: id, Body: wire.AppendStringBody(nil, serveView)})
			}
			var buf []byte
			for k := 0; k < satWindow && more(); k++ {
				buf = next(buf)
			}
			if _, err := c.c.Write(buf); err != nil {
				errs[i] = err
				return
			}
			if err := c.c.SetReadDeadline(readBy); err != nil {
				errs[i] = err
				return
			}
			var rbuf []byte
			for out := sent; out > 0; out-- {
				f, b, err := wire.ReadFrame(c.br, rbuf, 0)
				rbuf = b
				if err != nil {
					errs[i] = err
					return
				}
				completed[i]++
				apply, known := isApply[f.ID]
				delete(isApply, f.ID)
				switch {
				case !known:
					errs[i] = fmt.Errorf("response for unknown request id %d", f.ID)
					return
				case apply && f.Kind == wire.KindOK:
					acked[i]++
				case !apply && f.Kind == wire.KindResult && r.validResult(f.Body):
				default:
					failed[i]++
				}
				if more() {
					if _, err := c.c.Write(next(buf[:0])); err != nil {
						errs[i] = err
						return
					}
					out++
				}
			}
		}()
	}
	wg.Wait()
	elapsed = time.Since(t0)
	for i := range errs {
		if errs[i] != nil {
			return 0, 0, 0, errs[i]
		}
		done += completed[i]
		applied += acked[i]
		r.rep.attempted += completed[i]
		r.rep.failed += failed[i]
	}
	r.acked += applied
	return done, applied, elapsed, nil
}

// measure runs the measured phases as rounds, each an open-loop window at
// serveRate (QUERY latency), an APPLY-only closed loop (durable delta
// rate) and a mixed closed loop (sustained request rate). Every metric is
// the median of its windows, and the rounds spread each metric's windows
// over the whole run, so a stall of the host moves one window, not the
// metric. The closed loops send fixed numbers of requests, so the log that
// finish recovers holds the same work on every run.
func (r *serveRun) measure() error {
	if r.cfg.trace {
		return r.tracedPhases()
	}
	mixedPerConn := int64(r.cfg.seconds * 0.4 * mixedRate / windows / serveConns)
	var q50, rate, tput []float64
	for k := 0; k < windows; k++ {
		ph, err := r.openLoop(serveRate, r.cfg.budget(0.4/windows))
		if err != nil {
			return err
		}
		q50 = append(q50, us(ph.query.quantile(0.50)))
		_, applied, el, err := r.closedLoop(0, satDeltas/windows/serveConns, 0)
		if err != nil {
			return err
		}
		tput = append(tput, float64(applied)/el.Seconds())
		done, _, el, err := r.closedLoop(0, mixedPerConn, 100-serveApplyPct)
		if err != nil {
			return err
		}
		rate = append(rate, float64(done)/el.Seconds())
	}
	m := r.rep.metrics
	m["query_p50_us"] = median(q50)
	m["deltas_per_s"] = median(tput)
	m["max_rate_rps"] = median(rate)
	return nil
}

// tracedPhases runs the traced run: open-loop windows rotating untraced,
// observability-off and traced, then traced closed-loop APPLY-only and
// mixed phases. It records the wire, wal, warehouse and maintain metrics
// from the closed-loop phases and the overhead fractions from the
// rotating windows.
func (r *serveRun) tracedPhases() error {
	var lat, alat [3]durations
	var lag durations
	var stretch [3][]float64
	n := int(r.cfg.budget(0.5) / traceWindow)
	n -= n % 3
	if n < 3 {
		n = 3
	}
	for k := 0; k < n; k++ {
		md := mode(k % 3)
		r.s.w.SetObs(md != obsOff)
		r.t.on.Store(md == traced)
		ph, err := r.openLoop(serveRate, traceWindow)
		if err != nil {
			return err
		}
		lat[md] = append(lat[md], ph.query...)
		alat[md] = append(alat[md], ph.apply...)
		lag = append(lag, ph.lag...)
		stretch[md] = append(stretch[md], us(ph.query.quantile(0.5)))
	}
	*r.wire, *r.wal = wireStats{}, walStats{}
	w := r.s.w
	statsStart := engineStats(w, []string{serveView})
	metStart := w.MetricsSnapshot()
	size := r.log.l.Size()
	cpuStart := readCPU()
	r.t.on.Store(true)
	if _, _, _, err := r.closedLoop(r.cfg.budget(0.25), 0, 0); err != nil {
		return err
	}
	if _, _, _, err := r.closedLoop(r.cfg.budget(0.25), 0, 100-serveApplyPct); err != nil {
		return err
	}
	r.t.on.Store(false)
	cpuEnd := readCPU()
	metEnd := w.MetricsSnapshot()
	walBytes := r.log.l.Size() - size

	m := r.rep.metrics
	m["go.gc_cpu_frac"] = ratio(cpuEnd.gc-cpuStart.gc, cpuEnd.total-cpuStart.total)
	deltas := float64(metEnd.Counters["warehouse.batch.deltas"] - metStart.Counters["warehouse.batch.deltas"])
	st := engineStats(w, []string{serveView})
	m["maintain.aux_lookups_per_delta"] = ratio(float64(st.AuxLookups-statsStart.AuxLookups), deltas)
	m["maintain.detail_rows_per_delta"] = ratio(float64(st.DetailRows-statsStart.DetailRows), deltas)
	m["maintain.recomputes_per_delta"] = ratio(float64(st.GroupRecomputes-statsStart.GroupRecomputes), deltas)
	warehouseMetrics(m, metStart, metEnd, int64(deltas))
	m["wire.handle_p50_us"] = float64(metEnd.Histograms["wire.request.ns"].P50) / 1e3

	ws := r.wire
	reqs := float64(metEnd.Counters["wire.requests"] - metStart.Counters["wire.requests"])
	m["wire.reads_per_req"] = ratio(float64(ws.reads.calls.Load()+ws.headerReads.calls.Load()), reqs)
	m["wire.writes_per_req"] = ratio(float64(ws.writes.calls.Load()), reqs)
	m["wire.io_us_per_req"] = ratio(float64(ws.reads.ns.Load()+ws.writes.ns.Load())/1e3, reqs)
	m["wire.bytes_per_req"] = ratio(float64(ws.reads.bytes.Load()+ws.headerReads.bytes.Load()+ws.writes.bytes.Load()), reqs)
	m["driver.lag_p99_us"] = us(lag.quantile(0.99))
	m["latency.query_p90_us"] = us(lat[untraced].quantile(0.90))
	m["latency.query_p99_us"] = us(lat[untraced].quantile(0.99))
	m["latency.apply_p50_us"] = us(alat[untraced].quantile(0.50))
	m["latency.apply_p90_us"] = us(alat[untraced].quantile(0.90))
	m["latency.apply_p99_us"] = us(alat[untraced].quantile(0.99))
	logged := float64(r.wal.deltas.Load())
	m["wal.begin_us_per_delta"] = ratio(float64(r.wal.begins.ns.Load())/1e3, logged)
	m["wal.commit_us_per_delta"] = ratio(float64(r.wal.commits.ns.Load())/1e3, logged)
	m["wal.deltas_per_fsync"] = ratio(logged, float64(r.wal.fsyncs.Load()))
	m["wal.bytes_per_delta"] = ratio(float64(walBytes), logged)
	if m["wal.deltas_per_fsync"] <= 1 && r.rep.checkErr == nil {
		r.rep.checkErr = fmt.Errorf("group commit did not batch: %.2f deltas per fsync", m["wal.deltas_per_fsync"])
	}
	m["trace.overhead_frac"] = ratio(us(lat[traced].quantile(0.5)), us(lat[untraced].quantile(0.5))) - 1
	m["obs.overhead_frac"] = ratio(us(lat[untraced].quantile(0.5)), us(lat[obsOff].quantile(0.5))) - 1
	q := overhead(stretch[untraced], stretch[obsOff])
	m["obs.overhead_iqr_frac"] = q[2] - q[0]
	m["trace.spans"] = float64(r.t.spans())
	return r.t.write(spanPath(r.cfg))
}

// finish stops the server and checks the run: recovering the WAL
// directory (serveRecovers times; recover_s is their median) gives a
// state that saves to the same bytes as the live one, and the log holds
// exactly one committed APPLY delta per acknowledged APPLY.
func (r *serveRun) finish() error {
	s := r.s
	m := r.rep.metrics
	for _, c := range s.conns {
		c.c.Close()
	}
	if err := s.srv.Close(); err != nil {
		return err
	}
	s.srv = nil
	m["aux_bytes_per_fact_byte"] = auxPerFact(s.w, s.w.Source().Table("sale").Bytes())
	var live bytes.Buffer
	if err := persist.Save(s.w, &live, true); err != nil {
		return err
	}
	m["heap_live_mb"] = heapLiveMB()
	if err := s.d.Close(); err != nil {
		return err
	}

	var times []float64
	for i := 0; i < serveRecovers; i++ {
		runtime.GC() // every recovery starts from the same collector state
		start := time.Now()
		d, err := wal.Open(s.dir, wal.Options{Sync: wal.SyncCommit})
		if err != nil {
			return fmt.Errorf("recovering %s: %w", s.dir, err)
		}
		times = append(times, time.Since(start).Seconds())
		var got bytes.Buffer
		err = persist.Save(d.Warehouse(), &got, true)
		if cerr := d.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if !bytes.Equal(live.Bytes(), got.Bytes()) && r.rep.checkErr == nil {
			r.rep.checkErr = fmt.Errorf("the recovered warehouse differs from the live one")
		}
	}
	m["recover_s"] = median(times)

	data, err := os.ReadFile(filepath.Join(s.dir, wal.LogFile))
	if err != nil {
		return err
	}
	start := time.Now()
	recs, _, err := wal.Decode(data)
	if err != nil {
		return err
	}
	m["recover.decode_s"] = time.Since(start).Seconds()
	if r.cfg.trace {
		start = time.Now()
		if err := wal.Replay(warehouse.New(), recs); err != nil {
			return err
		}
		m["recover.replay_s"] = time.Since(start).Seconds()
	}
	if n := committedApplies(recs); n != r.acked && r.rep.checkErr == nil {
		r.rep.checkErr = fmt.Errorf("%d APPLYs acknowledged, %d committed in the log", r.acked, n)
	}
	return nil
}

// committedApplies counts the committed deltas that arrived as APPLY
// (every logged delta that did not also mutate the sources).
func committedApplies(recs []wal.Record) int64 {
	committed := map[uint64]bool{}
	for _, rec := range recs {
		if rec.Kind == wal.KindCommit {
			committed[rec.LSN] = true
		}
	}
	var n int64
	for _, rec := range recs {
		if rec.Kind == wal.KindDelta && !rec.SrcApplied && committed[rec.LSN] {
			n++
		}
	}
	return n
}
