package main

// layerDef is one per-layer ledger metric: its unit and the end-to-end
// metric and workload the layer should move.
type layerDef struct{ name, unit, moves string }

// ledger is the per-layer metric list in print order. Layers a workload
// does not exercise print n/a and report 0 in the JSON line.
var ledger = []layerDef{
	{"graph.csr_build_s", "s", "setup_s on mine-kron (graph.FromEdges)"},
	{"graph.orient_s", "s", "setup_s on mine-kron (first Session.Oriented)"},
	{"core.pg_build_s", "s", "setup_s on mine-kron (first Session.PG + OrientedPG)"},
	{"core.sketch_mb", "MiB", "heap_mb on mine-kron (PG.MemoryBytes, both roles)"},
	{"pgio.open_s", "s", "setup_s on serve-hot, serve-cold, ingest-churn (artifact mmap open)"},
	{"pgio.mapped_mb", "MiB", "heap_mb on serve-hot, serve-cold (mapped, not heap)"},
	{"kernels.tc_bf_words", "count", "rate_per_s on mine-kron (computed: words ANDed by TC-BF)"},
	{"kernels.tc_bf_bytes", "B", "rate_per_s on mine-kron (computed: bytes read by TC-BF)"},
	{"kernels.tc_bf_replay_s", "s", "rate_per_s on mine-kron (TC-BF row pairs, 1 goroutine, kernels.AndCount)"},
	{"kernels.tc_exact_replay_s", "s", "p50_ms on mine-kron (TC-exact row pairs, 1 goroutine, kernels.IntersectCount)"},
	{"kernels.tc_exact_merge_elems", "count", "p50_ms on mine-kron (computed: elements merged by TC-exact)"},
	{"par.tc_bf_1w_s", "s", "rate_per_s on mine-kron (TC-BF at WithWorkers(1))"},
	{"par.tc_bf_efficiency", "ratio", "rate_per_s on mine-kron (1-worker time / (workers × N-worker time))"},
	{"mining.tc_exact_s", "s", "p50_ms on mine-kron (median per call; base of the speed-up)"},
	{"mining.tc_bf_s", "s", "p50_ms, rate_per_s on mine-kron (median per call)"},
	{"mining.clique4_bf_s", "s", "p50_ms on mine-kron (median per call)"},
	{"mining.jp_bf_s", "s", "p50_ms on mine-kron (median per call)"},
	{"mining.diamond_bf_s", "s", "p50_ms on mine-kron (median per call)"},
	{"mining.p99_ms", "ms", "p90_ms on mine-kron (geometric mean of per-kernel p99s; host stalls dominate it, so not gated)"},
	{"mining.tc_speedup", "ratio", "paper speed-up: mining.tc_exact_s / mining.tc_bf_s on mine-kron"},
	{"mining.tc_bf_rel_err", "ratio", "rel_err on mine-kron"},
	{"mining.clique4_bf_rel_err", "ratio", "rel_err on mine-kron"},
	{"mining.diamond_bf_rel_err", "ratio", "rel_err on mine-kron"},
	{"pattern.candidates", "count", "p50_ms on mine-kron (diamond estimate, exact count)"},
	{"pattern.embeddings", "count", "p50_ms on mine-kron (diamond estimate, exact count)"},
	{"pattern.est_pairs", "count", "p50_ms on mine-kron (diamond estimate, exact count)"},
	{"pattern.est_triples", "count", "p50_ms on mine-kron (diamond estimate, exact count)"},
	{"serve.engine_hit_us", "us", "p50_ms on serve-hot (Engine.QueryCtx p50, cache hits)"},
	{"serve.engine_miss_p50_us", "us", "p50_ms on serve-cold (Engine.QueryCtx p50, cache misses)"},
	{"serve.engine_miss_p99_us", "us", "p90_ms on serve-cold (Engine.QueryCtx p99, cache misses)"},
	{"serve.eval_nowait_us", "us", "p50_ms on serve-cold (misses replayed with no cache, no batch wait)"},
	{"serve.batch_wait_us", "us", "p50_ms on serve-cold (engine_miss_p50_us - eval_nowait_us)"},
	{"serve.batch_span_us", "us", "p50_ms on serve-cold (p50 of the engine's batch spans)"},
	{"serve.eval_span_us", "us", "p50_ms on serve-cold (p50 of the engine's eval/* spans)"},
	{"serve.cache_hit_ratio", "ratio", "p50_ms on serve-hot and ingest-churn"},
	{"serve.batch_mean_size", "count", "rate_per_s on serve-cold"},
	{"serve.coalesced_ratio", "ratio", "rate_per_s on serve-cold"},
	{"serve.allocs_per_query", "count", "p90_ms on serve-hot (process-wide, client included)"},
	{"serve.alloc_bytes_per_query", "B", "p90_ms on serve-hot (process-wide, client included)"},
	{"serve.gc_pause_ms", "ms", "p90_ms on serve-hot (total GC pause in the fixed-rate phase)"},
	{"http.self_p50_us", "us", "p50_ms on serve-hot (client time minus Querier time)"},
	{"http.self_p99_us", "us", "p90_ms on serve-hot (client time minus Querier time)"},
	{"http.bytes_per_query", "B", "p50_ms on serve-hot (bytes on the wire, both directions)"},
	{"stream.ingest_p50_ms", "ms", "rate_per_s on ingest-churn (batch due time → new epoch serving)"},
	{"stream.ingest_p99_ms", "ms", "rate_per_s on ingest-churn (batch due time → new epoch serving)"},
	{"stream.apply_ms", "ms", "rate_per_s on ingest-churn (p50 of the Feeder's ingest/apply spans)"},
	{"stream.freeze_ms", "ms", "rate_per_s on ingest-churn (p50 of stream/freeze spans)"},
	{"stream.swap_ms", "ms", "rate_per_s on ingest-churn (p50 of ingest/swap spans)"},
	{"stream.rows_resketched", "count", "rate_per_s on ingest-churn (DynamicGraph.Stats, per batch)"},
	{"stream.batches", "count", "rate_per_s on ingest-churn (batches applied in the run)"},
	{"load.max_qps_at_slo", "1/s", "rate_per_s on serve-hot, serve-cold (highest offered rate whose p99 <= 10 ms)"},
	{"load.fixed_p50_ms", "ms", "p50_ms on serve-hot, serve-cold (open loop at the fixed rate, from due time)"},
	{"load.fixed_p99_ms", "ms", "p90_ms on serve-hot, serve-cold (open loop at the fixed rate, from due time)"},
	{"load.closed_p99_ms", "ms", "p90_ms on serve-hot, serve-cold, ingest-churn (p99 of the back-to-back queries; not gated)"},
	{"load.sent", "count", "validity: requests sent by the open-loop generator"},
	{"load.failed", "count", "validity: non-2xx, transport errors and wrong answers"},
	{"load.lateness_ms", "ms", "validity: p99 of how late sends ran against schedule"},
	{"trace.setup_s", "s", "tracing overhead: traced minus untraced setup_s"},
	{"trace.heap_mb", "MiB", "tracing overhead: traced minus untraced heap_mb"},
	{"trace.p50_ms", "ms", "tracing overhead: traced minus untraced p50_ms"},
	{"trace.p90_ms", "ms", "tracing overhead: traced minus untraced p90_ms"},
	{"trace.rate_per_s", "1/s", "tracing overhead: traced minus untraced rate_per_s"},
	{"trace.rel_err", "ratio", "tracing overhead: traced minus untraced rel_err"},
}

// traceOverhead records traced minus untraced end-to-end values.
func traceOverhead(out *outcome, untraced, traced map[string]float64) {
	for _, m := range endToEnd {
		out.layer["trace."+m.name] = traced[m.name] - untraced[m.name]
	}
}
