package capwire

import "repro/internal/telemetry"

// Server-side per-agent metrics, labeled by agent ID. Cardinality is
// bounded by the deployed agent fleet (the registry guard caps label
// sets at 64 per family; a fleet larger than that should shard engines
// long before it shards a metrics page).
func mAgentBatches(agent string) *telemetry.Counter {
	return telemetry.Default().Counter(
		"marauder_agent_batches_ingested_total",
		"Capture batches ingested from remote agents, by agent.",
		telemetry.Labels{"agent": agent})
}

func mAgentFrames(agent string) *telemetry.Counter {
	return telemetry.Default().Counter(
		"marauder_agent_frames_ingested_total",
		"Capture frames ingested from remote agents, by agent.",
		telemetry.Labels{"agent": agent})
}

func mAgentQuarantined(agent string) *telemetry.Counter {
	return telemetry.Default().Counter(
		"marauder_agent_frames_quarantined_total",
		"Agent-delivered frames the engine quarantined instead of ingesting, by agent.",
		telemetry.Labels{"agent": agent})
}

func mAgentDedupedBatches(agent string) *telemetry.Counter {
	return telemetry.Default().Counter(
		"marauder_agent_batches_deduped_total",
		"Replayed agent batches dropped by the server's cursor dedup, by agent.",
		telemetry.Labels{"agent": agent})
}

func mAgentDedupedFrames(agent string) *telemetry.Counter {
	return telemetry.Default().Counter(
		"marauder_agent_frames_deduped_total",
		"Frames inside replayed agent batches dropped by dedup, by agent.",
		telemetry.Labels{"agent": agent})
}

func mAgentResumes(agent string) *telemetry.Counter {
	return telemetry.Default().Counter(
		"marauder_agent_resumes_total",
		"Agent sessions resumed from a non-zero acked cursor, by agent.",
		telemetry.Labels{"agent": agent})
}

func mAgentConnects(agent string) *telemetry.Counter {
	return telemetry.Default().Counter(
		"marauder_agent_connects_total",
		"Agent session handshakes completed, by agent.",
		telemetry.Labels{"agent": agent})
}

func mAgentProtoErrors(agent string) *telemetry.Counter {
	return telemetry.Default().Counter(
		"marauder_agent_protocol_errors_total",
		"Agent connections dropped for protocol violations (bad framing, seq gaps), by agent.",
		telemetry.Labels{"agent": agent})
}

func mAgentConnected(agent string) *telemetry.Gauge {
	return telemetry.Default().Gauge(
		"marauder_agent_connected",
		"Whether the agent currently holds a live session (1) or not (0), by agent.",
		telemetry.Labels{"agent": agent})
}

func mAgentLag(agent string) *telemetry.Gauge {
	return telemetry.Default().Gauge(
		"marauder_agent_lag_batches",
		"Agent-reported send-queue backlog at its last heartbeat, by agent.",
		telemetry.Labels{"agent": agent})
}

// mBatchSeconds times one batch's decode + engine ingest on the server.
// Unlabeled so a fleet-wide p99 falls out of one series.
func mBatchSeconds() *telemetry.Histogram {
	return telemetry.Default().Histogram(
		"marauder_agent_batch_seconds",
		"Server-side latency of one agent batch: wire decode through engine ingest.",
		telemetry.LatencyBuckets(), nil)
}

// Client-side metrics, labeled by agent ID (one per capagent process;
// several when one process runs many clients, as the tests do).
func mClientQueueDepth(agent string) *telemetry.Gauge {
	return telemetry.Default().Gauge(
		"marauder_agent_send_queue_batches",
		"Batches waiting in the agent's bounded send queue (unsent + unacked), by agent.",
		telemetry.Labels{"agent": agent})
}

func mClientDropped(agent string) *telemetry.Counter {
	return telemetry.Default().Counter(
		"marauder_agent_dropped_batches_total",
		"Batches dropped by the agent's drop-oldest overflow policy, by agent.",
		telemetry.Labels{"agent": agent})
}

func mClientReconnects(agent string) *telemetry.Counter {
	return telemetry.Default().Counter(
		"marauder_agent_reconnects_total",
		"Completed client handshakes after the first, by agent.",
		telemetry.Labels{"agent": agent})
}

func mClientReplayed(agent string) *telemetry.Counter {
	return telemetry.Default().Counter(
		"marauder_agent_replayed_batches_total",
		"Batches re-sent from the unacked tail after a reconnect, by agent.",
		telemetry.Labels{"agent": agent})
}

func mClientRenumbered(agent string) *telemetry.Counter {
	return telemetry.Default().Counter(
		"marauder_agent_renumbered_batches_total",
		"Queued batches re-sequenced after a server cursor regression (engine restart with a stale cursor file), by agent.",
		telemetry.Labels{"agent": agent})
}
