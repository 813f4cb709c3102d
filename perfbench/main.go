// Command perfbench is mindetail's end-to-end benchmark. One invocation
// runs one workload from a seed, checks that the warehouse's outputs are
// correct, and prints one JSON result as the last line of standard output:
//
//	perfbench -workload maintain -seed 3 -seconds 10 -trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//   - serve: a durable warehouse (wal.Open, SyncCommit) behind wire.Serve
//     on loopback, driven over 2 pipelined connections with 90% QUERY
//     product_sales and 10% APPLY of a one-row sale: open-loop windows at
//     a fixed offered rate and closed-loop windows with the server's
//     in-flight cap outstanding, then recovery of the WAL directory.
//   - maintain: the paper's detached scenario, three views over a retail
//     star of ~117k sales, fed seeded DefaultMix deltas by one caller
//     through Warehouse.ApplyDelta, in memory.
//   - outofcore: a per-day COUNT(DISTINCT) view whose auxiliary stores live
//     on pager files with the sale detail ≥10x its buffer pool, fed a
//     skewed stream of single-row price updates by one caller.
//
// With -trace 0 the result carries the end-to-end metrics, measured with
// the program exactly as shipped. With -trace 1 it carries the per-layer
// metrics: the run alternates untraced, observability-off and traced
// windows, wraps the program's seams (net.Listener, warehouse.ChangeLog,
// maintain.AuxStore) from this package, and writes the recorded spans to
// <dir>/spans/ when the run ends. No program code is changed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // scratch space for this run (WAL, page files)
	outDir   string // where spans are written
}

// budget returns the share frac of the run's measured time.
func (c config) budget(frac float64) time.Duration {
	return time.Duration(frac * c.seconds * float64(time.Second))
}

// report is what a workload hands back: metric values by name, the
// operation counts, and the outcome of its correctness checks.
type report struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	checkErr  error
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the warehouse sees, printed with
// tracing off. Every workload reports every one of them:
//
//	setup_s                  empty to ready: schema, load, CREATE MATERIALIZED VIEW
//	                         (derivation and backfill), and for serve listen and
//	                         dial; the median of repeated set-ups
//	query_p50_us             serve: a QUERY at serveRate, from when it was due to
//	                         its response; maintain, outofcore: the Query that
//	                         reads each view after an ApplyDelta
//	max_rate_rps             serve: requests completed per second with satWindow
//	                         in flight per connection; maintain, outofcore:
//	                         ApplyDelta and Query calls per second of the caller
//	deltas_per_s             serve: acknowledged APPLYs per second, APPLY only;
//	                         maintain, outofcore: ApplyDelta calls per second
//	recover_s                serve: wal.Open of the run's log, whose APPLYs are
//	                         fixed in number; maintain, outofcore: restoring the
//	                         end-of-run snapshot (and its page files)
//	aux_bytes_per_fact_byte  aux-view bytes per sale-table byte after the run
//	heap_live_mb             live heap after a forced collection
//	ok_frac                  1 - failed/attempted; its complement is never 0
//
// The latency percentiles of single operations are per-layer metrics
// (latency.*): APPLY waits on the WAL fsync, and on a shared disk its
// latency moves more between runs than any bound a regression check could
// use.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_us", "us"},
	{"max_rate_rps", "1/s"},
	{"deltas_per_s", "1/s"},
	{"recover_s", "s"},
	{"aux_bytes_per_fact_byte", "ratio"},
	{"heap_live_mb", "MB"},
	{"ok_frac", "frac"},
}

// perLayer lists the single-layer metrics, printed by the traced run. A
// metric of a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"wire.reads_per_req", "count"},
	{"wire.writes_per_req", "count"},
	{"wire.io_us_per_req", "us"},
	{"wire.bytes_per_req", "bytes"},
	{"wire.handle_p50_us", "us"},
	{"driver.lag_p99_us", "us"},
	{"latency.query_p90_us", "us"},
	{"latency.query_p99_us", "us"},
	{"latency.apply_p50_us", "us"},
	{"latency.apply_p90_us", "us"},
	{"latency.apply_p99_us", "us"},
	{"wal.begin_us_per_delta", "us"},
	{"wal.commit_us_per_delta", "us"},
	{"wal.deltas_per_fsync", "count"},
	{"wal.bytes_per_delta", "bytes"},
	{"recover.decode_s", "s"},
	{"recover.replay_s", "s"},
	{"warehouse.deltas_per_propagate", "count"},
	{"warehouse.snapshot_hit_ratio", "frac"},
	{"warehouse.propagate_p50_us", "us"},
	{"warehouse.apply_self_us", "us"},
	{"maintain.aux_lookups_per_delta", "count"},
	{"maintain.detail_rows_per_delta", "count"},
	{"maintain.recomputes_per_delta", "count"},
	{"maintain.stage.expand_p50_us", "us"},
	{"maintain.stage.filter_p50_us", "us"},
	{"maintain.stage.delta_detail_join_p50_us", "us"},
	{"maintain.stage.scoped_recompute_p50_us", "us"},
	{"maintain.stage.commit_p50_us", "us"},
	{"maintain.memo_hit_ratio", "frac"},
	{"maintain.allocs_per_delta", "count"},
	{"maintain.alloc_kb_per_delta", "KB"},
	{"go.gc_cpu_frac", "frac"},
	{"pager.hit_ratio", "frac"},
	{"pager.misses_per_delta", "count"},
	{"pager.evictions_per_delta", "count"},
	{"pager.flushes_per_delta", "count"},
	{"pager.spill_ratio", "ratio"},
	{"pager.store_calls_per_delta", "count"},
	{"pager.store_us_per_delta", "us"},
	{"setup.load_s", "s"},
	{"setup.create_view_s", "s"},
	{"trace.overhead_frac", "frac"},
	{"trace.accounted_frac", "frac"},
	{"trace.spans", "count"},
	{"obs.overhead_frac", "frac"},
	{"obs.overhead_iqr_frac", "frac"},
	{"env.num_cpu", "count"},
	{"env.gomaxprocs", "count"},
	{"env.fsync_p50_us", "us"},
}

var workloads = map[string]func(config) (*report, error){
	"serve":     runServe,
	"maintain":  runMaintain,
	"outofcore": runOutOfCore,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var (
		cfg   config
		trace int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: serve, maintain or outofcore")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured time of the run, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run; 0 prints end-to-end metrics")
	flag.StringVar(&cfg.outDir, "dir", ".bench_build", "directory for scratch files and span output")
	flag.Parse()
	if err := run(cfg, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config, trace int) error {
	runW, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (serve, maintain or outofcore)", cfg.workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	cfg.trace = trace == 1
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir

	env, err := measureEnv(dir)
	if err != nil {
		return fmt.Errorf("measuring the environment: %w", err)
	}
	rep, err := runW(cfg)
	if err != nil {
		return err
	}
	for k, v := range env.metrics() {
		rep.metrics[k] = v
	}
	envLine, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", envLine)

	if rep.attempted < 1 {
		return fmt.Errorf("workload %s attempted no operations", cfg.workload)
	}
	rep.metrics["ok_frac"] = 1 - float64(rep.failed)/float64(rep.attempted)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out := resultOut{
		Correct:   rep.checkErr == nil,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if rep.checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed:", rep.checkErr)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if rep.checkErr != nil {
		os.Exit(1)
	}
	return nil
}

// spanPath is where a traced run writes its spans.
func spanPath(cfg config) string {
	return filepath.Join(cfg.outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
}
