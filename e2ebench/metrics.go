package main

// perLayer are the metrics of a --trace 1 run, the same list on every
// workload. A layer the workload does not exercise reports 0; README.md
// maps each metric to the end-to-end metric it should move.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"attack.ingest.addbatch_p50_us", "us"},
		{"attack.ingest.addbatch_p99_us", "us"},
		{"attack.ingest.batches_per_drain", "count"},
		{"attack.ingest.queued_max", "count"},
		{"attack.ingest.close_ms", "ms"},
		{"attack.ingest.visible_lag_p50_ms", "ms"},
		{"attack.ingest.visible_lag_p99_ms", "ms"},
		{"attack.exec.count_p50_us", "us"},
		{"attack.exec.count_by_vector_p50_us", "us"},
		{"attack.exec.count_by_day_p50_us", "us"},
		{"attack.exec.plan_store_p50_us", "us"},
		{"attack.exec.scan_tasks_per_query", "count"},
		{"attack.exec.probe_tasks_per_query", "count"},
		{"attack.exec.bitmap_tasks_per_query", "count"},
		{"attack.exec.bitmap_hit_ratio", "ratio"},
		{"attack.index.first_count_ms", "ms"},
		{"attack.index.first_prefix_ms", "ms"},
		{"attack.index.first_distinct_ms", "ms"},
		{"attack.segment.write_ms", "ms"},
		{"attack.segment.open_ms", "ms"},
		{"attack.segment.bytes_per_event", "bytes"},
		{"federation.count_rtt_p50_us", "us"},
		{"federation.count_rtt_p99_us", "us"},
		{"federation.version_rtt_p50_us", "us"},
		{"federation.plan_store_p50_ms", "ms"},
		{"federation.bytes_sent_per_query", "bytes"},
		{"federation.bytes_recv_per_query", "bytes"},
		{"httpapi.serve_p50_us", "us"},
		{"httpapi.serve_p99_us", "us"},
		{"httpapi.self_p50_us", "us"},
		{"httpapi.cache_hit_ratio", "ratio"},
		{"httpapi.resp_bytes_per_query", "bytes"},
	}
	for _, c := range coreCalls {
		m = append(m, metricDef{"core." + c.name + "_ms", "ms"})
	}
	return append(m,
		metricDef{"amppot.request_p50_ns", "ns"},
		metricDef{"amppot.alloc_bytes_per_request", "bytes"},
		metricDef{"amppot.close_idle_ms", "ms"},
		metricDef{"dossim.generate_s", "s"},
		metricDef{"e2e.latency_p99_ms", "ms"},
		metricDef{"e2e.throughput_per_s", "1/s"},
		metricDef{"gen.late_p99_ms", "ms"},
		metricDef{"go.gc_cpu_fraction", "ratio"},
		metricDef{"go.alloc_mb_per_s", "MB/s"},
		metricDef{"trace.overhead_pct", "%"},
	)
}()
