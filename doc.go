// Package hdc is a production-quality Go reproduction of "Conceptual Design
// of Human-Drone Communication in Collaborative Environments" (Doran, Reif,
// Oehler, Stöhr, Capone — DSN 2020): a bidirectional human↔drone visual
// language for collaborative agricultural work, built on SAX-based
// marshalling-sign recognition, an LED all-round light, communicative
// flight patterns and a negotiated-access protocol.
//
// The public façade lives in internal/core (core.System); every substrate
// — geometry, time series + SAX, raster + vision, the articulated
// signaller, the synthetic drone camera, the kinematic airframe, the LED
// ring, the protocol engine and the orchard world — is its own package
// under internal/. Recognition scales through internal/pipeline, a
// streaming worker-pool service with pooled buffers and per-stream
// ordering, surfaced as core.System.NewStream/RecognizeBatchContext and
// driving the concurrent fleet in internal/mission. See DESIGN.md for the
// architecture and EXPERIMENTS.md for the per-figure reproduction report;
// `go run ./cmd/experiments` regenerates the latter.
package hdc
