package wire_test

import (
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"time"

	"mindetail/internal/wire"
	"mindetail/internal/wireclient"
)

// TestServerCapsPreAuthHello: a peer that declares a 16 MiB Hello before
// authenticating is refused as soon as the header arrives — not when the
// handshake timeout expires — and the refusal is counted.
func TestServerCapsPreAuthHello(t *testing.T) {
	w := newServerWarehouse(t)
	s := startServer(t, w, wire.Config{Secret: "s", HandshakeTimeout: 10 * time.Second})
	rejected := func() int64 { return w.MetricsSnapshot().Counters["wire.handshake.rejected"] }
	before := rejected()

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:], 16<<20)
	start := time.Now()
	if _, err := conn.Write(append(append([]byte(nil), wire.Magic...), hdr[:]...)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var b [1]byte
	if _, err := conn.Read(b[:]); err == nil {
		t.Fatal("server answered an oversized hello instead of closing")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server held an oversized hello open")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("oversized hello refused after %v", el)
	}
	if got := rejected() - before; got != 1 {
		t.Fatalf("wire.handshake.rejected moved by %d, want 1", got)
	}
}

// TestServerLongSecretAuthenticates: the Hello cap leaves room for a 1 KiB
// shared secret.
func TestServerLongSecretAuthenticates(t *testing.T) {
	secret := strings.Repeat("k", 1024)
	s := startServer(t, newServerWarehouse(t), wire.Config{Secret: secret})
	c, err := wireclient.Dial(s.Addr().String(), secret)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestServerPerKindLatency: QUERY and APPLY requests are timed in their own
// wire.request.<kind>.ns histograms, and still in wire.request.ns.
func TestServerPerKindLatency(t *testing.T) {
	w := newServerWarehouse(t)
	s := startServer(t, w, wire.Config{})
	c, err := wireclient.Dial(s.Addr().String(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const queries, applies = 7, 3
	for i := 0; i < queries; i++ {
		if _, err := c.Query("product_sales"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < applies; i++ {
		if err := c.ApplyDelta(saleInsert()); err != nil {
			t.Fatal(err)
		}
	}
	h := w.MetricsSnapshot().Histograms
	if got := h["wire.request.query.ns"].Count; got != queries {
		t.Errorf("wire.request.query.ns holds %d observations, want %d", got, queries)
	}
	if got := h["wire.request.apply.ns"].Count; got != applies {
		t.Errorf("wire.request.apply.ns holds %d observations, want %d", got, applies)
	}
	if got := h["wire.request.ns"].Count; got != queries+applies {
		t.Errorf("wire.request.ns holds %d observations, want %d", got, queries+applies)
	}
}
