// shhpass.hpp — the single public entry point of the library.
//
//   #include "api/shhpass.hpp"
//
//   shhpass::api::PassivityAnalyzer analyzer;
//   auto result = analyzer.analyze(system);
//   if (result.ok()) std::puts(result->toJson().c_str());
//
// Pulls in the engine facade (PassivityAnalyzer, AnalysisRequest/-Report,
// runBatch), the Status/Result error model, the stage-pipeline engine
// (runPipeline, for callers that want the intermediate realizations), the
// passivity margin and enforcement helpers, and the modelling front ends
// (descriptor systems, netlists, MNA stamping, circuit generators) needed
// to build analysis inputs.
#pragma once

// Engine facade and error model.
#include "api/analyzer.hpp"
#include "api/ingest.hpp"
#include "api/json.hpp"
#include "api/pipeline.hpp"
#include "api/status.hpp"

// Observability surface (span tracing and memory accounting — enabled
// per analyzer via AnalyzerOptions::telemetry or process-wide via
// SHHPASS_TRACE / SHHPASS_METRICS).
#include "obs/memory.hpp"
#include "obs/trace.hpp"

// Modelling front ends.
#include "circuits/generators.hpp"
#include "circuits/mna.hpp"
#include "circuits/netlist.hpp"
#include "circuits/spice_parser.hpp"
#include "circuits/sweep.hpp"
#include "ds/descriptor.hpp"
#include "ds/impulse_tests.hpp"

// Passivity margin and feedthrough enforcement (Sec. 4 remarks).
#include "core/margin.hpp"
