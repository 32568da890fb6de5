package main

// layerMetric is one per-layer metric of the traced run: the layer it
// measures and the end-to-end metric (on a named workload) a change to
// that layer should move. The list must match BENCHMARK.json's per_layer
// entries (ledger_test.go checks it).
type layerMetric struct {
	Name   string
	Unit   string
	Better string
	Layer  string
	Moves  string
}

const (
	t1Rate      = "tasks_per_cpu_s@uts-t1"
	bounceRate  = "tasks_per_cpu_s@bpc-bounce"
	workersRate = "tasks_per_cpu_s@uts-workers"
	serveRate   = "tasks_per_cpu_s@serve-tiny"
)

var layerMetrics = []layerMetric{
	{"shmem.fetch_add_self_ns.local", "ns", "lower", "shmem", t1Rate + "," + workersRate},
	{"shmem.fetch_add_self_ns.shm", "ns", "lower", "shmem", t1Rate + "," + workersRate},
	{"shmem.fetch_add_remote_ns.local", "ns", "lower", "shmem", bounceRate},
	{"shmem.fetch_add_remote_ns.shm", "ns", "lower", "shmem", bounceRate},
	{"shmem.fetch_add_remote_ns.tcp", "ns", "lower", "shmem", bounceRate},
	{"shmem.get64_remote_ns.local", "ns", "lower", "shmem", bounceRate},
	{"shmem.get64_remote_ns.shm", "ns", "lower", "shmem", bounceRate},
	{"shmem.store_nbi_remote_ns.local", "ns", "lower", "shmem", bounceRate},
	{"shmem.store_nbi_remote_ns.shm", "ns", "lower", "shmem", bounceRate},
	{"shmem.comms_per_task", "count", "lower", "shmem", bounceRate},

	{"obs.op_overhead_ns.local", "ns", "lower", "obs", t1Rate},

	{"core.steal_ns.v1.local", "ns", "lower", "core", bounceRate},
	{"core.steal_ns.v1.shm", "ns", "lower", "core", bounceRate},
	{"core.steal_ns.v1.rtt2us.shm", "ns", "lower", "core", bounceRate},
	{"core.steal_ns.v64.rtt2us.shm", "ns", "lower", "core", bounceRate},
	{"core.release_acquire_ns.local", "ns", "lower", "core", bounceRate},
	{"core.steal_success_frac", "frac", "higher", "core", bounceRate},
	{"core.tasks_per_steal", "count", "higher", "core", bounceRate},
	{"core.push_pop_ns.local", "ns", "lower", "core", t1Rate},
	{"core.comms_per_steal", "count", "lower", "core", bounceRate},
	{"core.blocking_per_steal", "count", "lower", "core", bounceRate},
	{"core.sws_over_sdc_steal.v1.rtt2us.shm", "ratio", "lower", "core", bounceRate},

	{"sdc.steal_ns.v1.rtt2us.shm", "ns", "lower", "sdc", "none (baseline, off the default path)"},
	{"sdc.comms_per_steal", "count", "lower", "sdc", "none (baseline, off the default path)"},

	{"pool.exec_frac", "frac", "higher", "pool", t1Rate + "," + bounceRate},
	{"pool.steal_frac", "frac", "lower", "pool", t1Rate + "," + bounceRate},
	{"pool.search_frac", "frac", "lower", "pool", t1Rate + "," + bounceRate},
	{"pool.unattributed_frac", "frac", "lower", "pool", t1Rate + "," + bounceRate},
	{"pool.idle_iters_per_task", "count", "lower", "pool", bounceRate},
	{"pool.allocs_per_task", "count", "lower", "pool", t1Rate},
	{"pool.efficiency_vs_serial", "frac", "higher", "pool", t1Rate},
	{"pool.worker_exec_share_max", "frac", "lower", "pool", workersRate},
	{"pool.empty_job_us", "us", "lower", "pool", serveRate},

	{"serve.queue_ms_p50", "ms", "lower", "serve", serveRate},
	{"serve.run_ms_p50", "ms", "lower", "serve", serveRate},
	{"serve.overhead_ms_p50", "ms", "lower", "serve", serveRate},
	{"serve.job_p99_ms", "ms", "lower", "serve", serveRate},
	{"serve.refused", "count", "lower", "serve", "failed_frac@serve-tiny"},

	{"uts.serial_ns_per_node", "ns", "lower", "uts", "floor under " + t1Rate},

	{"failed_frac", "frac", "lower", "all", "none (correctness; every workload)"},
	{"host.cpu_steal_frac", "frac", "lower", "host", "none (flags noisy runs)"},
	{"trace.overhead.tasks_per_cpu_s", "frac", "lower", "trace", "none (cost of tracing)"},

	// The wall-clock rates of the untraced stretches: what a user waits
	// for, unbounded because the host's other tenants move them.
	{"wall.tasks_per_s", "1/s", "higher", "all", "none (wall-clock view of tasks_per_cpu_s)"},
	{"wall.jobs_per_s", "1/s", "higher", "all", "none (wall-clock view of tasks_per_cpu_s)"},
	{"wall.job_p50_ms", "ms", "lower", "all", "none (wall-clock view of tasks_per_cpu_s)"},
	{"wall.setup_s", "s", "lower", "all", "none (wall-clock view of setup_s)"},
}

// endToEnd lists the metrics of an untraced run, with their units.
var endToEnd = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"tasks_per_cpu_s", "1/s"},
	{"mem_peak_mb", "MB"},
}

// ledgerRow is one reported per-layer value with its tags.
type ledgerRow struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Layer string  `json:"layer"`
	Moves string  `json:"moves"`
}
