package fleet

import (
	"sort"

	"autopipe/internal/server"
)

// fleetMetrics returns the node's fleet telemetry, which /metrics
// writes together with the registry families in one sorted list.
func (n *Node) fleetMetrics() []*server.Family {
	peers := n.members.snapshot()
	counts := map[string]int{"alive": 0, "suspect": 0, "dead": 0}
	for _, p := range peers {
		counts[p.State]++
	}
	byState := &server.Family{Name: "autopiped_fleet_peers", Type: "gauge",
		Help: "Known peers by failure-detector state."}
	for _, st := range []string{"alive", "suspect", "dead"} {
		byState.Add("state", st, float64(counts[st]))
	}
	rtt := &server.Family{Name: "autopiped_fleet_heartbeat_rtt_seconds", Type: "gauge",
		Help: "Latest heartbeat round trip per peer."}
	sort.Slice(peers, func(i, j int) bool { return peers[i].ID < peers[j].ID })
	for _, p := range peers {
		if p.RTTSec > 0 {
			rtt.Add("peer", p.ID, p.RTTSec)
		}
	}
	quorum, minority := 0.0, 0.0
	if n.quorumOK.Load() {
		quorum = 1
	}
	if n.reg.Minority() {
		minority = 1
	}
	return []*server.Family{
		byState, rtt,
		server.Gauge("autopiped_fleet_peers_alive",
			"Peers this node currently considers alive.", float64(counts["alive"])),
		server.Gauge("autopiped_fleet_ring_members",
			"Nodes currently in the placement ring (including this one).", float64(n.ring.Len())),
		server.Counter("autopiped_fleet_jobs_adopted_total",
			"Jobs taken over from dead or departed peers.", float64(n.adopted.Load())),
		server.Counter("autopiped_fleet_forwarded_requests_total",
			"API requests proxied to the owning node.", float64(n.forwarded.Load())),
		server.Counter("autopiped_fleet_replicated_records_total",
			"Journal records streamed to ring successors.", float64(n.replSent.Load())),
		server.Counter("autopiped_fleet_replication_dropped_total",
			"Records dropped under replication backpressure (repaired by resync).", float64(n.replDropped.Load())),
		server.Counter("autopiped_fleet_replication_errors_total",
			"Replication batches that failed to reach their successor.", float64(n.replErrors.Load())),
		server.Counter("autopiped_fleet_handoff_jobs_total",
			"Queued jobs handed to peers during graceful drain.", float64(n.handoffSent.Load())),
		server.Counter("autopiped_fleet_handoff_received_total",
			"Jobs accepted on behalf of gateway or draining peers.", float64(n.handoffRecv.Load())),
		server.Counter("autopiped_fleet_heartbeats_total",
			"Successful heartbeat round trips.", float64(n.heartbeatsOK.Load())),
		server.Counter("autopiped_fleet_heartbeat_failures_total",
			"Heartbeat attempts that failed.", float64(n.heartbeatsBad.Load())),
		server.Gauge("autopiped_fleet_quorum",
			"1 while this node reaches a strict majority of the membership.", quorum),
		server.Gauge("autopiped_fleet_minority",
			"1 while the registry sheds and pauses work for lack of quorum.", minority),
		server.Counter("autopiped_fleet_fence_rejections_total",
			"Replicated records and writes refused for carrying a stale ownership fence.", float64(n.fenceRejections.Load())),
		server.Counter("autopiped_fleet_minority_flips_total",
			"Quorum state transitions in either direction.", float64(n.minorityFlips.Load())),
		server.Counter("autopiped_fleet_adoptions_suppressed_total",
			"Dead-peer adoptions skipped because this node lacked quorum.", float64(n.adoptSuppressed.Load())),
		server.Counter("autopiped_fleet_digest_errors_total",
			"Heal-time fence digest exchanges that failed.", float64(n.digestErrors.Load())),
	}
}
