package main

// metricDef names one reported number. Clock says whether a timing is
// host time (what the simulator costs to run), simulated time (what
// the modelled hardware would take) or a plain count or ratio.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Clock  string // "host", "sim" or "count"
}

// endToEnd are the metrics a user of the system sees. They come only
// from untraced runs, and BENCHMARK.json fixes a regression bound for
// each. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "host"},          // cold state to first timed op: compile the workload's catalog (plus store writes, or daemon start and warm wave); median of the repeats in one run
	{"ops_per_s", "ops/s", "higher", "host"},   // throughput of the least-disturbed rounds: 90th percentile over rounds of (ops in a round / its wall time), per working-set class on membound-sweep; on daemon-serve the closed saturation phase, i.e. its capacity
	{"latency_ms", "ms", "lower", "host"},      // mean over catalog keys of each key's 10th-percentile op latency; on daemon-serve the open-loop phase, timed from each request's due time
	{"sim_mips", "Minstr/s", "higher", "host"}, // ops_per_s times the mean simulated IR instructions (Machine.Steps, counted once per key in the reference pass) of the catalog's ops
	{"peak_rss_mb", "MiB", "lower", "host"},    // 90th percentile over the measured loop's one-second windows of the process's VmHWM in that window
}

// reportOnly are end-to-end numbers the benchmark prints and records but
// BENCHMARK.json does not bound: they are 0 on a healthy run (so a
// relative bound means nothing), they move too far from run to run on a
// shared host to hold a bound, or they describe the host rather than the
// system.
var reportOnly = []metricDef{
	{"error_rate", "fraction", "lower", "count"},    // failed ops / attempted ops; an op fails on an error or an output digest that differs from its in-process reference
	{"slo_miss_frac", "fraction", "lower", "count"}, // daemon-serve open phase: requests failed, refused or slower than 50 ms / requests attempted
	{"latency_p50_ms", "ms", "lower", "host"},       // median op latency, same samples as latency_ms; on a shared host it moves with how much of the run other tenants slowed, too far to bound
	{"latency_p90_ms", "ms", "lower", "host"},       // 90th-percentile op latency, same samples; even more so
	{"latency_p99_ms", "ms", "lower", "host"},       // 99th-percentile op latency; too few samples lie beyond it to bound
	{"latency_samples", "count", "higher", "count"}, // number of latency samples behind the percentiles
	{"host_ref_ms", "ms", "lower", "host"},          // a fixed pure-Go loop over 8 MiB, timed around the measured loop: the host's speed during the run, for reading the other numbers
}

// perLayer are the traced run's numbers, one set per workload. Time
// metrics are per op of the workload's mix unless the comment says
// otherwise; a layer the workload's ops never call reads 0.
var perLayer = []metricDef{
	// workloads, passes, vm plan: what setup pays per catalog key.
	{"workloads.build_ms", "ms", "lower", "host"}, // IR build (Spec.Build) of the program flavors a key needs
	{"workloads.seed_ms", "ms", "lower", "host"},  // seeding and baking the data image of those flavors
	{"passes.pipeline_ms", "ms", "lower", "host"}, // passes.RunPipeline for the optimized flavor (0 where only raw builds are used)
	{"vm.compile_ms", "ms", "lower", "host"},      // vm.Compile (verify, freeze, plan) of those flavors
	// vm artifact and store.
	{"vm.encode_artifact_ms", "ms", "lower", "host"}, // vm.EncodeArtifact of those flavors
	{"vm.decode_artifact_ms", "ms", "lower", "host"}, // vm.DecodeArtifact of those flavors
	{"store.save_ms", "ms", "lower", "host"},         // store.Save of those artifacts
	{"store.load_ms", "ms", "lower", "host"},         // store.Load of those artifacts
	{"store.artifact_kb", "KiB", "lower", "count"},   // serialized artifact size of those flavors
	// pkg/mperf cache.
	{"cache.compiled", "count/op", "lower", "count"},     // programs compiled during the traced ops
	{"cache.memory_hits", "count/op", "higher", "count"}, // programs served from memory during the traced ops
	{"cache.disk_hits", "count/op", "higher", "count"},   // programs loaded from the artifact store during the traced ops
	{"cache.get_us", "us", "lower", "host"},              // ProgramCache.Get served from memory, summed over the Gets of one op (one per collector)
	// vm instantiate.
	{"vm.instantiate_us", "us", "lower", "host"}, // vm.NewMachine, per machine the op creates
	{"vm.release_us", "us", "lower", "host"},     // Machine.Release after a run, per machine
	// vm + machine + mem simulation.
	{"vm.run_quiet_ms", "ms", "lower", "host"},        // one run of the raw build with no counter armed
	{"vm.quiet_mips", "Minstr/s", "higher", "host"},   // simulated instructions per host second in that quiet run
	{"sim.instrs_per_op", "count", "lower", "sim"},    // simulated IR instructions per op
	{"sim.cycles_per_op", "count", "lower", "sim"},    // simulated cycles per op
	{"cpu.vm_frac", "fraction", "lower", "host"},      // flat CPU share of internal/vm during the traced ops (pprof)
	{"cpu.machine_frac", "fraction", "lower", "host"}, // flat CPU share of internal/machine (core timing, charging)
	{"cpu.mem_frac", "fraction", "lower", "host"},     // flat CPU share of internal/mem (cache and DRAM model)
	// pmu / kernel / sbi / miniperf.
	{"miniperf.stat_ms", "ms", "lower", "host"},               // Tool.Stat around one run, per op
	{"miniperf.record_ms", "ms", "lower", "host"},             // Tool.Record around one run, per op
	{"pmu.count_overhead_frac", "fraction", "lower", "host"},  // run inside Tool.Stat with the default six events / quiet run - 1
	{"pmu.sample_overhead_frac", "fraction", "lower", "host"}, // run inside Record / quiet run - 1
	{"miniperf.samples_per_op", "count", "higher", "sim"},     // samples delivered per op
	{"miniperf.lost_samples", "count", "lower", "sim"},        // ring-buffer drops per op
	{"cpu.pmu_frac", "fraction", "lower", "host"},             // flat CPU share of internal/{pmu,kernel,sbi,miniperf}
	// roofline, tma.
	{"roofline.two_phase_ms", "ms", "lower", "host"},   // roofline.RunTwoPhase, per op
	{"roofline.model_ms", "ms", "lower", "host"},       // building the roofline model from the points and rendering its ASCII plot, per op
	{"tma.measure_ms", "ms", "lower", "host"},          // tma.Measure around one run, per op
	{"tma.overhead_frac", "fraction", "lower", "host"}, // run inside tma.Measure / quiet run - 1
	// post-processing and encode.
	{"miniperf.hotspots_ms", "ms", "lower", "host"}, // Recording.Hotspots, per op
	{"flamegraph.build_ms", "ms", "lower", "host"},  // Recording.FlameGraph plus ASCII(100) and SVG(1000), per op
	{"mperf.encode_ms", "ms", "lower", "host"},      // mperf.WriteJSON of the op's profile
	{"mperf.profile_kb", "KiB", "lower", "count"},   // encoded profile size
	{"cpu.json_frac", "fraction", "lower", "host"},  // flat CPU share of encoding/json
	// pkg/mperf sweep.
	{"sweep.cell_ms", "ms", "lower", "host"},          // RunSweep of one cell on a fresh cache over the filled store
	{"sweep.cell_overhead_ms", "ms", "lower", "host"}, // sweep cell minus an in-process Session.Run of the same key, same cache state
	{"sweep.merge_ms", "ms", "lower", "host"},         // MergeSweep of one round's directory
	// pkg/mperfd.
	{"mperfd.service_ms", "ms", "lower", "host"},           // in-process Session.RunStream of the request
	{"mperfd.server_ms", "ms", "lower", "host"},            // Server.Profile of the request (queue + worker)
	{"mperfd.queue_ms", "ms", "lower", "host"},             // server_ms - service_ms
	{"mperfd.transport_ms", "ms", "lower", "host"},         // HTTP client.Profile - server_ms
	{"mperfd.queue_depth_mean", "count", "lower", "count"}, // daemon queue depth sampled at each open-loop dispatch
	{"mperfd.rejected", "count", "lower", "count"},         // requests the daemon refused during the traced ops
	{"cpu.net_frac", "fraction", "lower", "host"},          // flat CPU share of net, net/*, internal/poll and the syscall packages
	// load generator and host.
	{"load.conn_wait_ms_p99", "ms", "lower", "host"},     // p99 wait for a free client connection or worker
	{"load.generator_lag_ms_p99", "ms", "lower", "host"}, // p99 lateness of the generator against each op's due time
	{"host.alloc_kb_per_op", "KiB", "lower", "host"},     // heap bytes allocated per op
	{"host.mallocs_per_op", "count", "lower", "host"},    // heap allocations per op
	{"host.gc_cycles", "count/op", "lower", "host"},      // GC cycles per op
	{"cpu.gc_frac", "fraction", "lower", "host"},         // flat CPU share of the runtime's garbage collector
	// verify and trace health: gates, not gains.
	{"verify.golden_mismatches", "count", "lower", "count"},  // catalog keys whose output digest differs from golden.json
	{"verify.pinned_drift_pct", "%", "lower", "count"},       // largest drift of the four pinned paper metrics
	{"verify.paper_err_pct.x60_ipc", "%", "lower", "sim"},    // simulated X60 sqlite IPC vs the paper's 0.86
	{"verify.paper_err_pct.i5_ipc", "%", "lower", "sim"},     // simulated i5 sqlite IPC vs the paper's 3.38
	{"verify.paper_err_pct.x86_gflops", "%", "lower", "sim"}, // simulated x86 matmul GFLOP/s vs the paper's 34.06
	{"verify.paper_err_pct.x60_gflops", "%", "lower", "sim"}, // simulated X60 matmul GFLOP/s vs the paper's 1.58
	{"verify.paper_err_pct.memset_bpc", "%", "lower", "sim"}, // simulated X60 memset bytes/cycle vs the paper's 3.16
	{"trace.overhead_frac", "fraction", "lower", "host"},     // cost of the benchmark's own spans / op time
	{"trace.unattributed_frac", "fraction", "lower", "host"}, // op time not covered by any child span
}
