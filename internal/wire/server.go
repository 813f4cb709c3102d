package wire

import (
	"crypto/subtle"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"mindetail/internal/obs"
	"mindetail/internal/warehouse"
)

// Server defaults; all overridable through Config.
const (
	DefaultMaxConns         = 1024
	DefaultMaxInFlight      = 32
	DefaultHandshakeTimeout = 5 * time.Second
)

// maxHelloFrame bounds the unauthenticated Hello frame. ReadFrame allocates
// the declared length before any body byte arrives, so the handshake must
// not trust a peer with MaxFrame bytes; a Hello carries only a version and
// the shared secret.
const maxHelloFrame = 4 << 10

// Config tunes a Server.
type Config struct {
	// Secret is the shared secret clients must present in the Hello
	// handshake. Empty means no authentication.
	Secret string
	// MaxConns caps concurrent sessions (admission control); further
	// connections are answered with an error frame and closed. <=0 selects
	// DefaultMaxConns.
	MaxConns int
	// MaxInFlight caps concurrently executing requests per session. When a
	// client pipelines past the cap, the session stops reading its socket —
	// TCP backpressure, not an error. <=0 selects DefaultMaxInFlight.
	MaxInFlight int
	// MaxFrame bounds a single request frame. <=0 selects DefaultMaxFrame.
	MaxFrame int
	// PipelineDepth is the group-commit batch ceiling for single-delta
	// APPLY requests (<=0 selects warehouse.DefaultPipelineDepth).
	PipelineDepth int
	// HandshakeTimeout bounds the magic+Hello exchange. <=0 selects
	// DefaultHandshakeTimeout.
	HandshakeTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxConns <= 0 {
		c.MaxConns = DefaultMaxConns
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = DefaultMaxInFlight
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = DefaultHandshakeTimeout
	}
	return c
}

// Server is a concurrent TCP front end over one Warehouse. Reads (QUERY,
// all-SELECT EXEC scripts) ride the warehouse's lock-free snapshot /
// shared-lock paths and overlap freely; single-delta APPLY requests from
// all sessions funnel into one group-commit Pipeline so WAL fsyncs
// amortize across connections; batch APPLY uses ApplyDeltaBatch directly.
type Server struct {
	w    *warehouse.Warehouse
	pipe *warehouse.Pipeline
	cfg  Config
	ln   net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup // accept loop + sessions

	connsAccepted *obs.Counter
	connsRejected *obs.Counter
	connsActive   *obs.Gauge
	authFailures  *obs.Counter
	requests      *obs.Counter
	requestErrs   *obs.Counter
	requestNs     *obs.Histogram
	// kindNs holds one wire.request.<kind>.ns histogram per request kind
	// (nil for kinds that are not requests).
	kindNs [KindMetrics + 1]*obs.Histogram
	// handshakeRejected counts handshakes that did not complete: bad
	// magic, an oversized or malformed Hello, failed authentication, or an
	// I/O error or timeout before the Hello was accepted.
	handshakeRejected *obs.Counter
}

// Listen starts a server on a fresh TCP listener at addr ("host:port";
// ":0" picks a free port, readable via Addr).
func Listen(w *warehouse.Warehouse, addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Serve(w, ln, cfg), nil
}

// Serve starts a server on an existing listener. The server owns the
// listener and its group-commit pipeline; Close releases both.
func Serve(w *warehouse.Warehouse, ln net.Listener, cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := w.ObsRegistry()
	s := &Server{
		w:     w,
		pipe:  warehouse.NewPipeline(w, cfg.PipelineDepth),
		cfg:   cfg,
		ln:    ln,
		conns: make(map[net.Conn]struct{}),

		connsAccepted: reg.Counter("wire.conns.accepted"),
		connsRejected: reg.Counter("wire.conns.rejected"),
		connsActive:   reg.Gauge("wire.conns.active"),
		authFailures:  reg.Counter("wire.auth.failures"),
		requests:      reg.Counter("wire.requests"),
		requestErrs:   reg.Counter("wire.request.errors"),
		requestNs:     reg.Histogram("wire.request.ns"),

		handshakeRejected: reg.Counter("wire.handshake.rejected"),
	}
	for k := KindPing; k <= KindMetrics; k++ {
		s.kindNs[k] = reg.Histogram("wire.request." + k.String() + ".ns")
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting, severs every session's connection, waits for all
// session goroutines to drain (in-flight requests run to completion and
// their pipeline acks are consumed — never abandoned), then closes the
// group-commit pipeline. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	if already {
		err = nil
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	s.pipe.Close()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if len(s.conns) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.connsRejected.Inc()
			// Answer with an error frame (best effort, bounded) so the
			// client's handshake fails with a reason instead of an EOF.
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				_ = conn.SetDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
				_, _ = WriteFrame(conn, nil, Frame{Kind: KindError, ID: 0,
					Body: AppendStringBody(nil, "wire: server at connection capacity")})
				// Hold the connection open (discarding the client's handshake
				// bytes) until the client closes or the deadline passes —
				// closing immediately can RST the error frame away before the
				// client reads it.
				_, _ = io.Copy(io.Discard, conn)
			}()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.connsAccepted.Inc()
		s.connsActive.Add(1)
		s.wg.Add(1)
		go s.session(conn)
	}
}

// session owns one authenticated connection: a reader that admits at most
// MaxInFlight concurrent handlers (backpressure = it simply stops reading)
// and a writer that serializes response frames. On disconnect — graceful
// or torn — every in-flight handler still runs to completion and has its
// response consumed, so a dead client can neither leak a goroutine nor
// abandon a group-commit ack.
func (s *Server) session(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.connsActive.Add(-1)
	}()

	if err := s.handshake(conn); err != nil {
		s.handshakeRejected.Inc()
		return
	}

	writeCh := make(chan Frame, s.cfg.MaxInFlight)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		var buf []byte
		var err error
		broken := false
		for f := range writeCh {
			if broken {
				continue // keep draining so handlers never block
			}
			if buf, err = WriteFrame(conn, buf, f); err != nil {
				broken = true
			}
		}
	}()

	sem := make(chan struct{}, s.cfg.MaxInFlight)
	var handlers sync.WaitGroup
	var rbuf []byte
	for {
		var req Frame
		var err error
		req, rbuf, err = ReadFrame(conn, rbuf, s.cfg.MaxFrame)
		if err != nil {
			break // disconnect or protocol error: drain and exit
		}
		// The frame body aliases the session read buffer; copy it so the
		// handler survives the next ReadFrame overwriting it.
		req.Body = append([]byte(nil), req.Body...)
		sem <- struct{}{} // in-flight cap: blocks the reader when saturated
		handlers.Add(1)
		go func(req Frame) {
			defer handlers.Done()
			defer func() { <-sem }()
			writeCh <- s.handle(req)
		}(req)
	}
	handlers.Wait()
	close(writeCh)
	<-writerDone
}

// handshake validates the magic preamble and the Hello frame within the
// handshake timeout.
func (s *Server) handshake(conn net.Conn) error {
	if err := conn.SetDeadline(time.Now().Add(s.cfg.HandshakeTimeout)); err != nil {
		return err
	}
	var magic [8]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil {
		return err
	}
	if string(magic[:]) != string(Magic) {
		return fmt.Errorf("wire: bad magic preamble")
	}
	hello, _, err := ReadFrame(conn, nil, min(s.cfg.MaxFrame, maxHelloFrame))
	if err != nil {
		return err
	}
	fail := func(msg string) error {
		s.authFailures.Inc()
		_, _ = WriteFrame(conn, nil, Frame{Kind: KindError, ID: hello.ID,
			Body: AppendStringBody(nil, msg)})
		return fmt.Errorf("wire: %s", msg)
	}
	if hello.Kind != KindHello {
		return fail("handshake must start with a hello frame")
	}
	version, secret, err := DecodeHello(hello.Body)
	if err != nil {
		return fail("malformed hello frame")
	}
	if version != ProtocolVersion {
		return fail(fmt.Sprintf("unsupported protocol version %d", version))
	}
	if subtle.ConstantTimeCompare([]byte(secret), []byte(s.cfg.Secret)) != 1 {
		return fail("authentication failed")
	}
	if _, err := WriteFrame(conn, nil, Frame{Kind: KindOK, ID: hello.ID}); err != nil {
		return err
	}
	return conn.SetDeadline(time.Time{})
}

// handle executes one request and builds its response frame.
func (s *Server) handle(req Frame) Frame {
	start := time.Now()
	s.requests.Inc()
	resp := s.dispatch(req)
	if resp.Kind == KindError {
		s.requestErrs.Inc()
	}
	ns := time.Since(start).Nanoseconds()
	s.requestNs.Observe(ns)
	if int(req.Kind) < len(s.kindNs) && s.kindNs[req.Kind] != nil {
		s.kindNs[req.Kind].Observe(ns)
	}
	return resp
}

func (s *Server) dispatch(req Frame) Frame {
	fail := func(err error) Frame {
		return Frame{Kind: KindError, ID: req.ID, Body: AppendStringBody(nil, err.Error())}
	}
	switch req.Kind {
	case KindPing:
		return Frame{Kind: KindOK, ID: req.ID}
	case KindExec:
		sql, err := DecodeStringBody(req.Body)
		if err != nil {
			return fail(err)
		}
		rel, err := s.w.Exec(sql)
		if err != nil {
			return fail(err)
		}
		return Frame{Kind: KindResult, ID: req.ID, Body: AppendResultBody(nil, rel)}
	case KindQuery:
		view, err := DecodeStringBody(req.Body)
		if err != nil {
			return fail(err)
		}
		rel, err := s.w.Query(view)
		if err != nil {
			return fail(err)
		}
		return Frame{Kind: KindResult, ID: req.ID, Body: AppendResultBody(nil, rel)}
	case KindApply:
		d, err := DecodeDeltaBody(req.Body)
		if err != nil {
			return fail(err)
		}
		if err := s.pipe.Submit(d); err != nil {
			return fail(err)
		}
		return Frame{Kind: KindOK, ID: req.ID}
	case KindApplyBatch:
		ds, err := DecodeDeltaBatchBody(req.Body)
		if err != nil {
			return fail(err)
		}
		errs := s.w.ApplyDeltaBatch(ds)
		return Frame{Kind: KindBatchResult, ID: req.ID, Body: AppendBatchResultBody(nil, errs)}
	case KindMetrics:
		data, err := s.w.MetricsSnapshot().MarshalJSONIndent()
		if err != nil {
			return fail(err)
		}
		return Frame{Kind: KindMetricsResult, ID: req.ID, Body: data}
	default:
		return fail(fmt.Errorf("wire: unexpected request kind %s", req.Kind))
	}
}
