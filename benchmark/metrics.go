package main

// metricSpec names one metric. BENCHMARK.json at the root of the repository
// lists the same names, units, directions and bounds; TestBenchmarkJSON keeps
// the two from drifting.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics are what a user of the system sees. Every workload reports
// every one of them, from untraced repetitions only. Bound is the share of
// the parent's median by which the metric may worsen before a change counts
// as a regression. Every timing has the widest bound there is: the machine
// this was written on drifts by ±12% over minutes (see the README), and a
// bound inside the noise would call noise a regression.
var endToEndMetrics = []metricSpec{
	// Input generation + listen/dial/accept, median of the run's set-ups.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Input rows ÷ median repetition wall time (service: ÷ the time from
	// the first row to the last upload absorbed).
	{Name: "rows_per_s", Unit: "rows/s", Better: "higher", Bound: 0.25},
	// Metered words of one run; exact on the batch workloads.
	{Name: "words_total", Unit: "words", Better: "lower", Bound: 0.05},
	// Measured error ÷ its certificate (service: ÷ the ε‖A‖F² it is
	// configured for); above 1 fails the run.
	{Name: "err_over_bound", Unit: "ratio", Better: "lower", Bound: 0.25},
	// VmHWM at exit, one workload per process.
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	// The wait for one answer: a whole protocol run on the batch workloads,
	// a /topk HTTP round trip on service-ingest-query.
	{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
}

// exactWords lists the workloads whose words_total must not move at all for
// one seed: every batch protocol is deterministic given its inputs.
var exactWords = map[string]bool{
	"fd-dense-mem": true, "fd-sparse-tcp-tree": true, "svs-dense-tcp": true, "product-sparse-tcp": true,
}

// perLayerMetrics are readings of single layers, taken from outside on the
// traced pass: by decorators around the calls a repetition makes, and by
// replaying a server's share of the work through the layer's public
// functions. A reading that does not apply to a workload is 0 there. The
// README says which end-to-end metric each should move.
var perLayerMetrics = []metricSpec{
	{Name: "workload.source_next_s", Unit: "s", Better: "lower"},
	{Name: "workload.rows_read", Unit: "count", Better: "higher"},

	{Name: "fd.update_append_s", Unit: "s", Better: "lower"},
	{Name: "fd.update_shrink_s", Unit: "s", Better: "lower"},
	{Name: "fd.shrinks", Unit: "count", Better: "lower"},
	{Name: "fd.shrink_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fd.matrix_s", Unit: "s", Better: "lower"},
	{Name: "fd.merge_s", Unit: "s", Better: "lower"},

	{Name: "linalg.svd_buffer_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "linalg.svd_share_of_shrink", Unit: "ratio", Better: "lower"},
	{Name: "linalg.svd_tall_s", Unit: "s", Better: "lower"},

	{Name: "matrix.gram_gflops", Unit: "GFLOP/s", Better: "higher"},

	{Name: "core.svs_sample_s", Unit: "s", Better: "lower"},
	{Name: "core.svs_rows_kept", Unit: "count", Better: "lower"},
	{Name: "core.priority_offer_s", Unit: "s", Better: "lower"},
	{Name: "core.estimate_s", Unit: "s", Better: "lower"},
	{Name: "core.coverr_s", Unit: "s", Better: "lower"},

	{Name: "comm.encode_s", Unit: "s", Better: "lower"},
	{Name: "comm.decode_s", Unit: "s", Better: "lower"},
	{Name: "comm.frame_bytes", Unit: "bytes", Better: "lower"},
	{Name: "comm.encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "comm.words_uplink", Unit: "words", Better: "lower"},
	{Name: "comm.words_downlink", Unit: "words", Better: "lower"},
	{Name: "comm.messages", Unit: "count", Better: "lower"},
	{Name: "comm.rounds", Unit: "count", Better: "lower"},

	{Name: "distributed.server_max_s", Unit: "s", Better: "lower"},
	{Name: "distributed.server_sum_s", Unit: "s", Better: "lower"},
	{Name: "distributed.coord_total_s", Unit: "s", Better: "lower"},
	{Name: "distributed.coord_recv_wait_s", Unit: "s", Better: "lower"},
	{Name: "distributed.node_send_s", Unit: "s", Better: "lower"},
	{Name: "distributed.tcp_setup_s", Unit: "s", Better: "lower"},
	{Name: "distributed.driver_overhead_s", Unit: "s", Better: "lower"},
	{Name: "distributed.allocs_per_row", Unit: "count", Better: "lower"},
	{Name: "distributed.alloc_bytes_per_row", Unit: "bytes", Better: "lower"},

	{Name: "monitoring.offer_rows_per_s", Unit: "rows/s", Better: "higher"},

	{Name: "service.uploads", Unit: "count", Better: "lower"},
	{Name: "service.words_per_upload", Unit: "words", Better: "lower"},
	{Name: "service.topk_compute_ms", Unit: "ms", Better: "lower"},
	{Name: "service.topk_queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.status_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.err_over_served_bound", Unit: "ratio", Better: "lower"},

	{Name: "parallel.rows_per_s_1p", Unit: "rows/s", Better: "higher"},
	{Name: "parallel.speedup", Unit: "ratio", Better: "higher"},

	{Name: "obs.bits_total", Unit: "bits", Better: "lower"},
	{Name: "obs.fd_shrinks", Unit: "count", Better: "lower"},
	{Name: "obs.rows_ingested", Unit: "count", Better: "higher"},
	{Name: "obs.traced_overhead_pct", Unit: "%", Better: "lower"},

	{Name: "model.alpha_us", Unit: "us", Better: "lower"},
	{Name: "model.predicted_run_s", Unit: "s", Better: "lower"},
	{Name: "model.measured_over_predicted", Unit: "ratio", Better: "lower"},
}

// workloadSpec names a workload and why it is in the suite.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{"fd-dense-mem", "Theorem 2 fd-merge with the wire nearly free: all shrink/SVD, so a shrink change shows here and a codec change does not"},
	{"fd-sparse-tcp-tree", "same fd layer through UpdateSparse, interior merges, float32 wire and a TCP tree: catches dense-leaf gains that cost the other paths"},
	{"svs-dense-tcp", "the randomized two-round protocol: one tall SVD per server and no fd, so an fd-only change must not move it"},
	{"product-sparse-tcp", "coordinated sampling of A^T B: no SVD at all, time is source iteration, sampler, CSR codec and the socket"},
	{"service-ingest-query", "the daemon: four ingesting servers beside two HTTP query clients on one coordinator loop, writes against reads"},
}
