#include "obs/telemetry.hpp"

#include <cstdlib>
#include <cstring>
#include <mutex>

#include "obs/memory.hpp"
#include "obs/trace.hpp"

namespace shhpass::obs {

void initTelemetryFromEnv() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* tracePath = std::getenv("SHHPASS_TRACE");
    if (tracePath != nullptr && tracePath[0] != '\0') {
      setTraceEnabled(true);
      setTraceExitPath(tracePath);
    }
    const char* metrics = std::getenv("SHHPASS_METRICS");
    if (metrics != nullptr && metrics[0] != '\0' &&
        std::strcmp(metrics, "0") != 0)
      setMemoryEnabled(true);
  });
}

void applyTelemetryOptions(const TelemetryOptions& options) {
  if (options.trace) setTraceEnabled(true);
  if (options.metrics) setMemoryEnabled(true);
}

}  // namespace shhpass::obs
