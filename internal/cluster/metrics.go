package cluster

import "repro/internal/obs"

// Metric names the cluster reports through the process-global Recorder,
// exposed on /metrics as the hyve_cluster_* families hyve-top's cluster
// panel renders. Counters are monotone; the three gauges track the live
// shape of the cluster; "cluster.shard.attempts" is a histogram of how
// many grants each completed shard needed (1 = first worker finished
// it; more = the fault machinery earned its keep).
const (
	MetricLeasesGranted    = "cluster.leases.granted"
	MetricLeasesReclaimed  = "cluster.leases.reclaimed"
	MetricLeasesExpired    = "cluster.leases.expired"
	MetricLeasesCompleted  = "cluster.leases.completed"
	MetricShardsReassigned = "cluster.shards.reassigned"
	MetricShardsPoisoned   = "cluster.shards.poisoned"
	MetricResultsMerged    = "cluster.results.merged"
	MetricResultsDuplicate = "cluster.results.duplicate"
	MetricResultsCorrupt   = "cluster.results.corrupt"
	MetricWorkersJoined    = "cluster.workers.joined"
	MetricWorkersLost      = "cluster.workers.lost"
	MetricFramesBad        = "cluster.frames.bad"
	MetricWorkersLive      = "cluster.workers.live"   // gauge
	MetricShardsKnown      = "cluster.shards"         // gauge (not *.total: a gauge family must not look like a counter)
	MetricShardsLeased     = "cluster.shards.leased"  // gauge
	MetricShardAttempts    = "cluster.shard.attempts" // histogram
	// MetricWorkerPoints is labeled per worker ("cluster.worker.points"
	// |worker=<name>): merged points attributed to the worker that
	// computed them, the per-worker points/s source in hyve-top.
	MetricWorkerPoints = "cluster.worker.points"
)

// RegisterMetrics announces every cluster counter to rec at value zero,
// so a freshly scraped /metrics shows the full hyve_cluster_* set
// before the first lease is granted.
func RegisterMetrics(rec obs.Recorder) {
	for _, name := range []string{
		MetricLeasesGranted, MetricLeasesReclaimed, MetricLeasesExpired,
		MetricLeasesCompleted, MetricShardsReassigned, MetricShardsPoisoned,
		MetricResultsMerged, MetricResultsDuplicate, MetricResultsCorrupt,
		MetricWorkersJoined, MetricWorkersLost, MetricFramesBad,
	} {
		rec.Count(name, 0)
	}
	rec.Gauge(MetricWorkersLive, 0)
	rec.Gauge(MetricShardsLeased, 0)
}
