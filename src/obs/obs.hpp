// Umbrella header for the observability subsystem:
//   - MetricsRegistry / Counter / Gauge / Histogram  (metrics.hpp)
//   - TraceRecorder / Span                           (trace.hpp)
//   - PROF_ZONE wall-time profiler                   (profiler.hpp)
//   - TelemetrySink streaming JSONL sink             (telemetry.hpp)
//   - RunReport                                      (report.hpp)
//   - minimal JSON value model                       (json.hpp)
//
// Instrumentation sites should guard per-step work with
// `if constexpr (ironic::obs::kEnabled)` so an IRONIC_OBS_ENABLED=0
// build carries zero overhead. See README.md "Observability".
#pragma once

#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/profiler.hpp"
#include "src/obs/report.hpp"
#include "src/obs/telemetry.hpp"
#include "src/obs/trace.hpp"
