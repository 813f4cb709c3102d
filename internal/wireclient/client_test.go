package wireclient_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mindetail/internal/maintain"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
	"mindetail/internal/warehouse"
	"mindetail/internal/wire"
	"mindetail/internal/wireclient"
)

const secret = "s3cret"

// setupSQL builds a two-table star with one materialized view. Product g
// (1..8) has g sales, so a per-product count names the product it answers.
func setupSQL() string {
	var b strings.Builder
	b.WriteString(`
CREATE TABLE product (id INTEGER PRIMARY KEY, brand VARCHAR, category VARCHAR);
CREATE TABLE sale (id INTEGER PRIMARY KEY, productid INTEGER REFERENCES product, price FLOAT);
CREATE MATERIALIZED VIEW by_brand AS
  SELECT brand, SUM(price) AS total, COUNT(*) AS cnt
  FROM sale, product WHERE sale.productid = product.id GROUP BY brand;
`)
	id := 1
	for g := 1; g <= 8; g++ {
		fmt.Fprintf(&b, "INSERT INTO product VALUES (%d, 'brand%d', 'cat');\n", g, g%2)
		for i := 0; i < g; i++ {
			fmt.Fprintf(&b, "INSERT INTO sale VALUES (%d, %d, 0.5);\n", id, g)
			id++
		}
	}
	return b.String()
}

func newWarehouse(t *testing.T) *warehouse.Warehouse {
	t.Helper()
	w := warehouse.New()
	if _, err := w.Exec(setupSQL()); err != nil {
		t.Fatal(err)
	}
	return w
}

// serve starts a wire server over w on a loopback port and returns its
// address; the server is closed when the test ends.
func serve(t *testing.T, w *warehouse.Warehouse) string {
	t.Helper()
	s, err := wire.Listen(w, "127.0.0.1:0", wire.Config{Secret: secret})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s.Addr().String()
}

func dial(t *testing.T, addr string) *wireclient.Client {
	t.Helper()
	c, err := wireclient.Dial(addr, secret)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func saleInsert(id, productID int64) maintain.Delta {
	return maintain.Delta{Table: "sale", Inserts: []tuple.Tuple{
		{types.Int(id), types.Int(productID), types.Float(1)}}}
}

// viewCount sums the view's cnt column: the number of sales it absorbed.
func viewCount(t *testing.T, c *wireclient.Client) int64 {
	t.Helper()
	rs, err := c.Query("by_brand")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	var n int64
	for _, r := range rs.Rows {
		n += r[2].AsInt()
	}
	return n
}

func TestClientRoundTrips(t *testing.T) {
	c := dial(t, serve(t, newWarehouse(t)))

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}

	rs, err := c.Query("by_brand")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if want := []string{"brand", "total", "cnt"}; strings.Join(rs.Cols, ",") != strings.Join(want, ",") {
		t.Fatalf("query cols = %v, want %v", rs.Cols, want)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("query rows = %d, want 2 brands", len(rs.Rows))
	}
	if n := viewCount(t, c); n != 36 {
		t.Fatalf("view counts %d sales, want 36", n)
	}

	rs, err = c.Exec("SELECT sale.productid, COUNT(*) AS cnt FROM sale WHERE sale.productid = 3 GROUP BY sale.productid")
	if err != nil {
		t.Fatalf("exec select: %v", err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].AsInt() != 3 || rs.Rows[0][1].AsInt() != 3 {
		t.Fatalf("exec select rows = %v, want [3 3]", rs.Rows)
	}
	if rs, err = c.Exec("INSERT INTO product VALUES (9, 'brand9', 'cat')"); err != nil {
		t.Fatalf("exec insert: %v", err)
	}
	if rs != nil {
		t.Fatalf("DML script returned a result set: %+v", rs)
	}

	if err := c.ApplyDelta(saleInsert(100, 1)); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if n := viewCount(t, c); n != 37 {
		t.Fatalf("after apply the view counts %d sales, want 37", n)
	}
	errs, err := c.ApplyDeltaBatch([]maintain.Delta{saleInsert(101, 2), saleInsert(102, 9)})
	if err != nil {
		t.Fatalf("apply batch: %v", err)
	}
	if len(errs) != 2 || errs[0] != nil || errs[1] != nil {
		t.Fatalf("apply batch outcomes = %v, want two nils", errs)
	}
	if n := viewCount(t, c); n != 39 {
		t.Fatalf("after apply batch the view counts %d sales, want 39", n)
	}

	data, err := c.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if !json.Valid(data) || !strings.Contains(string(data), "wire.requests") {
		t.Fatalf("metrics is not the server's JSON snapshot:\n%s", data)
	}
}

// A server ERROR frame surfaces as a Go error carrying the server's
// message, and the connection stays usable afterwards.
func TestClientServerErrors(t *testing.T) {
	w := newWarehouse(t)
	c := dial(t, serve(t, w))
	ref := newWarehouse(t) // the same statements run locally, for the expected messages

	_, err := c.Query("nosuch")
	_, want := ref.Query("nosuch")
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("query of unknown view: got error %v, want %v", err, want)
	}
	_, err = c.Exec("SELEC brand FROM product")
	_, want = ref.Exec("SELEC brand FROM product")
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("exec syntax error: got error %v, want %v", err, want)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after server errors: %v", err)
	}
}

// One member naming an unknown table fails alone; the batch reports
// per-member outcomes and the other members commit.
func TestClientApplyBatchPerMemberOutcomes(t *testing.T) {
	c := dial(t, serve(t, newWarehouse(t)))
	bad := maintain.Delta{Table: "nosuch", Inserts: []tuple.Tuple{{types.Int(1)}}}
	errs, err := c.ApplyDeltaBatch([]maintain.Delta{saleInsert(200, 1), bad, saleInsert(201, 2)})
	if err != nil {
		t.Fatalf("apply batch: %v", err)
	}
	if len(errs) != 3 {
		t.Fatalf("got %d outcomes for 3 members", len(errs))
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("valid members failed: %v", errs)
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "nosuch") {
		t.Fatalf("unknown-table member: got %v, want an error naming the table", errs[1])
	}
	if n := viewCount(t, c); n != 38 {
		t.Fatalf("view counts %d sales, want 38 (36 seeded + 2 valid members)", n)
	}
}

func TestClientClose(t *testing.T) {
	c := dial(t, serve(t, newWarehouse(t)))
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := c.Ping(); !errors.Is(err, wireclient.ErrClosed) {
		t.Fatalf("ping after close: got %v, want ErrClosed", err)
	}
	if _, err := c.Query("by_brand"); !errors.Is(err, wireclient.ErrClosed) {
		t.Fatalf("query after close: got %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestClientWrongSecret(t *testing.T) {
	addr := serve(t, newWarehouse(t))
	c, err := wireclient.Dial(addr, "wrong")
	if err == nil {
		c.Close()
		t.Fatal("dial with a wrong secret succeeded")
	}
	if !strings.Contains(err.Error(), "authentication failed") {
		t.Fatalf("dial with a wrong secret: %v", err)
	}
}

// One Client shared by 8 goroutines: calls serialize on the connection and
// every goroutine gets the response to its own request. Goroutine g asks
// for product g, which has exactly g sales.
func TestClientConcurrentUse(t *testing.T) {
	c := dial(t, serve(t, newWarehouse(t)))
	const goroutines, rounds = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 1; g <= goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sql := fmt.Sprintf("SELECT sale.productid, COUNT(*) AS cnt FROM sale WHERE sale.productid = %d GROUP BY sale.productid", g)
			for i := 0; i < rounds; i++ {
				rs, err := c.Exec(sql)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
				if len(rs.Rows) != 1 || rs.Rows[0][0].AsInt() != int64(g) || rs.Rows[0][1].AsInt() != int64(g) {
					errs <- fmt.Errorf("goroutine %d got another request's response: %v", g, rs.Rows)
					return
				}
				if err := c.Ping(); err != nil {
					errs <- fmt.Errorf("goroutine %d ping: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
