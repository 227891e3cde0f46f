// Telemetry front door: one call that applies the process-wide env
// forces and a TelemetryOptions knob the analyzer threads through from
// AnalyzerOptions. Environment always wins over per-analyzer options so
// a deployment can force a trace out of an unmodified binary:
//
//   SHHPASS_TRACE=/tmp/run.trace.json   enable tracing; write Chrome
//                                       trace JSON to the path at exit
//   SHHPASS_METRICS=1                   enable per-stage memory
//                                       accounting ("0" or unset leaves
//                                       it off)
//
// SHHPASS_TRACE is the one way to name an at-exit trace file; a program
// that wants the timeline at a point of its choosing calls
// obs::writeTraceJson (obs/trace.hpp).
#pragma once

namespace shhpass::obs {

/// Per-analyzer telemetry knobs (api::AnalyzerOptions::telemetry).
struct TelemetryOptions {
  bool trace = false;    ///< Enable span tracing process-wide.
  bool metrics = false;  ///< Enable per-stage memory accounting.
};

/// Read SHHPASS_TRACE / SHHPASS_METRICS once (std::call_once) and apply
/// them. Safe to call from every PassivityAnalyzer construction.
void initTelemetryFromEnv();

/// Apply per-analyzer options on top of the env forces (a set flag turns
/// telemetry on; options never turn OFF what the environment forced).
void applyTelemetryOptions(const TelemetryOptions& options);

}  // namespace shhpass::obs
