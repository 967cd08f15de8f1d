package capwire

import "repro/internal/telemetry"

// agentMetrics is one agent's server-side series, labeled by agent ID and
// resolved once when the server first tracks the agent, so the per-batch
// path never takes the registry lock while holding the agent's mutex.
// Cardinality is bounded by the deployed agent fleet (the registry guard
// caps label sets at 64 per family; a fleet larger than that should shard
// engines long before it shards a metrics page).
type agentMetrics struct {
	batches, frames, quarantined   *telemetry.Counter
	dedupedBatches, dedupedFrames  *telemetry.Counter
	resumes, connects, protoErrors *telemetry.Counter
	connected, lag                 *telemetry.Gauge
}

func newAgentMetrics(agent string) agentMetrics {
	l := telemetry.Labels{"agent": agent}
	r := telemetry.Default()
	return agentMetrics{
		batches: r.Counter("marauder_agent_batches_ingested_total",
			"Capture batches ingested from remote agents, by agent.", l),
		frames: r.Counter("marauder_agent_frames_ingested_total",
			"Capture frames ingested from remote agents, by agent.", l),
		quarantined: r.Counter("marauder_agent_frames_quarantined_total",
			"Agent-delivered frames the engine quarantined instead of ingesting, by agent.", l),
		dedupedBatches: r.Counter("marauder_agent_batches_deduped_total",
			"Replayed agent batches dropped by the server's cursor dedup, by agent.", l),
		dedupedFrames: r.Counter("marauder_agent_frames_deduped_total",
			"Frames inside replayed agent batches dropped by dedup, by agent.", l),
		resumes: r.Counter("marauder_agent_resumes_total",
			"Agent sessions resumed from a non-zero acked cursor, by agent.", l),
		connects: r.Counter("marauder_agent_connects_total",
			"Agent session handshakes completed, by agent.", l),
		protoErrors: r.Counter("marauder_agent_protocol_errors_total",
			"Agent connections dropped for protocol violations (bad framing, seq gaps), by agent.", l),
		connected: r.Gauge("marauder_agent_connected",
			"Whether the agent currently holds a live session (1) or not (0), by agent.", l),
		lag: r.Gauge("marauder_agent_lag_batches",
			"Agent-reported send-queue backlog at its last heartbeat, by agent.", l),
	}
}

// mBatchSeconds times one batch's decode + engine ingest on the server.
// Unlabeled so a fleet-wide p99 falls out of one series.
func mBatchSeconds() *telemetry.Histogram {
	return telemetry.Default().Histogram(
		"marauder_agent_batch_seconds",
		"Server-side latency of one agent batch: wire decode through engine ingest.",
		telemetry.LatencyBuckets(), nil)
}

// clientMetrics is one client's series, labeled by agent ID (one per
// capagent process; several when one process runs many clients, as the
// tests do) and resolved once in NewClient.
type clientMetrics struct {
	queueDepth                                *telemetry.Gauge
	dropped, reconnects, replayed, renumbered *telemetry.Counter
}

func newClientMetrics(agent string) clientMetrics {
	l := telemetry.Labels{"agent": agent}
	r := telemetry.Default()
	return clientMetrics{
		queueDepth: r.Gauge("marauder_agent_send_queue_batches",
			"Batches waiting in the agent's bounded send queue (unsent + unacked), by agent.", l),
		dropped: r.Counter("marauder_agent_dropped_batches_total",
			"Batches dropped by the agent's drop-oldest overflow policy, by agent.", l),
		reconnects: r.Counter("marauder_agent_reconnects_total",
			"Completed client handshakes after the first, by agent.", l),
		replayed: r.Counter("marauder_agent_replayed_batches_total",
			"Batches re-sent from the unacked tail after a reconnect, by agent.", l),
		renumbered: r.Counter("marauder_agent_renumbered_batches_total",
			"Queued batches re-sequenced after a server cursor regression (engine restart from a checkpoint older than its acks), by agent.", l),
	}
}
