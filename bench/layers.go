package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// telemetryLayer times the repository's own span primitive.
func telemetryLayer(lv layerValues, cfg config) {
	n := 200_000
	if cfg.toy {
		n = 2_000
	}
	t := telemetry.NewTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.Start("bench").End()
	}
	lv["telemetry.span_ns"] = float64(time.Since(start).Nanoseconds()) / float64(n)
}

// wireLayer records the real-socket layer so a wire change is not
// blind: unpaced loopback swarms (8 peers, 512 pieces; loopback, not a
// network) and the message codec through a buffer. Swarm throughput
// swings about 70% run to run on two cores, so it gates nothing.
func wireLayer(tr *tracer, parent *span, lv layerValues, cfg config) error {
	runs, peers, pieces, msgs := 7, 8, 512, 20_000
	if cfg.toy {
		runs, peers, pieces, msgs = 1, 3, 16, 500
	}
	var mbps []float64
	for i := 0; i < runs; i++ {
		sp := tr.start(parent, "wire.swarm", 0)
		res, err := wire.RunLoopbackSwarm(context.Background(), peers, pieces, cfg.seed+int64(i), 30*time.Second)
		sp.end()
		if err != nil {
			return fmt.Errorf("wire swarm %d: %w", i, err)
		}
		bytesMoved := float64(res.TotalFragments()) * wire.BlockSize
		mbps = append(mbps, bytesMoved/1e6/res.Duration.Seconds())
	}
	lv["wire.swarm_mbps"] = median(mbps)

	block := make([]byte, wire.BlockSize)
	var buf bytes.Buffer
	sp := tr.start(parent, "wire.codec", 0)
	start := time.Now()
	for i := 0; i < msgs; i++ {
		buf.Reset()
		if err := wire.Encode(&buf, wire.Message{ID: wire.MsgPiece, Index: uint32(i), Payload: block}); err != nil {
			return err
		}
		if _, err := wire.Decode(&buf); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	sp.end()
	lv["wire.codec_msgs_per_s"] = float64(msgs) / elapsed.Seconds()
	return nil
}
