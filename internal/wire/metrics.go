package wire

import "repro/internal/telemetry"

// Wire-layer metrics, in the process-wide registry. Real sockets fail
// in ways the simulator cannot, so the wire backend's health — stalled
// writers, refused handshakes — is visible here rather than only as
// eventual swarm timeouts.
var (
	mHandshakes = telemetry.Default().Counter("repro_wire_handshakes_total",
		"peer handshakes completed")
	mHandshakeFailures = telemetry.Default().Counter("repro_wire_handshake_failures_total",
		"peer handshakes refused or failed")
	mPiecesSent = telemetry.Default().Counter("repro_wire_pieces_sent_total",
		"PIECE messages queued for upload")
	mPiecesReceived = telemetry.Default().Counter("repro_wire_pieces_received_total",
		"verified PIECE messages received")
	mStalls = telemetry.Default().Counter("repro_wire_send_stalls_total",
		"connections killed because the writer queue was full")
	mSwarms = telemetry.Default().Counter("repro_wire_swarms_total",
		"loopback swarms started")
	mSwarmFailures = telemetry.Default().Counter("repro_wire_swarm_failures_total",
		"loopback swarms that failed or timed out")
	mSwarmSeconds = telemetry.Default().Histogram("repro_wire_swarm_seconds",
		"completed swarm broadcast duration", nil)
)
