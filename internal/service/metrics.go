package service

// Metric names recorded into the server's obs.Registry under the
// service.* namespace. /metricz renders the registry as JSON; lbload
// reads the cache counters back from it to report hit rates.
const (
	mRequests          = "service.requests"
	mOK                = "service.ok"
	mBadRequest        = "service.bad_request"
	mRejectedQueueFull = "service.rejected_queue_full"
	mRejectedTenantQ   = "service.rejected_tenant_queue"
	mRejectedTenant    = "service.rejected_tenant_limit"
	mRejectedShed      = "service.rejected_slo_shed"
	mRejectedDraining  = "service.rejected_draining"
	mDeadlineExceeded  = "service.deadline_exceeded"
	mInternalErrors    = "service.internal_errors"

	mCacheHits      = "service.cache_hits"
	mCacheMisses    = "service.cache_misses"
	mCacheEvictions = "service.cache_evictions"
	mCoalesced      = "service.singleflight_coalesced"

	// mPlansComputed counts actual planner executions. In cluster mode, summing it across nodes proves
	// the cluster-wide singleflight: N concurrent misses for one key on
	// N nodes must raise the cluster total by exactly one.
	mPlansComputed = "service.plans_computed"

	// Cluster-mode serving counters (cluster.go): proxied counts misses
	// routed to a remote owner, peer_plans_cached counts owner plans
	// installed into the local cache, failover_local counts misses
	// computed locally because the owner was unreachable.
	mClusterProxied   = "service.cluster.proxied"
	mClusterPeerPlans = "service.cluster.peer_plans_cached"
	mClusterFailover  = "service.cluster.failover_local"

	mBatchRequests = "service.batch_requests"
	mBatchItems    = "service.batch_items"
	mBatchDeduped  = "service.batch_deduped"

	mLatencyNs = "service.latency_ns"
	// mAdmittedLatencyNs records handler latency for 200 responses only
	// — the signal the SLO admission controller steers on (shed and
	// rejected responses are fast and would drag the p99 down just when
	// the service is at its slowest).
	mAdmittedLatencyNs = "service.admitted_latency_ns"
	mComputeNs         = "service.compute_ns"

	mQueueDepth = "service.queue_depth"
	mInflight   = "service.inflight"
	mWorkers    = "service.workers"
	mDraining   = "service.draining"

	// SLO admission controller state (admission.go): the current admit
	// fraction in permille and the windowed p99 it last steered on.
	mSLOAdmitPermille = "service.slo_admit_permille"
	mSLOWindowP99     = "service.slo_window_p99_ns"

	// Warm-restart snapshot counters (snapshot.go).
	mCacheSnapshotted = "service.cache_snapshotted"
	mCacheRestored    = "service.cache_restored"

	// Incremental replanning (rebalance.go): requests counts
	// POST /v1/rebalance arrivals; noop/patched/full_replans classify the
	// patch outcomes actually computed (cache hits re-serve a prior
	// outcome and count only as requests); prior_computed counts patches
	// whose prior plan was not cached and had to be replanned first;
	// patch_ns times the PatchInto call alone.
	mRebalanceRequests      = "service.rebalance.requests"
	mRebalanceNoop          = "service.rebalance.noop"
	mRebalancePatched       = "service.rebalance.patched"
	mRebalanceFullReplans   = "service.rebalance.full_replans"
	mRebalancePriorComputed = "service.rebalance.prior_computed"
	mRebalancePatchNs       = "service.rebalance.patch_ns"

	// Planner-pool stewardship (plan.go): puts count scratches returned
	// to the pools, drops count scratches discarded instead because one
	// oversized request had ballooned their retained buffers. Parallel
	// counts plans that fanned out across a pooled planner's workers.
	mPlannerPoolPuts     = "service.planner_pool.puts"
	mPlannerPoolDrops    = "service.planner_pool.drops"
	mPlannerPoolParallel = "service.planner_pool.parallel_plans"
)
