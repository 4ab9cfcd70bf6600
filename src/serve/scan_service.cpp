#include "serve/scan_service.hpp"

#include "obs/metrics.hpp"
#include "tensor/simd/dispatch.hpp"

namespace magic::serve {

std::string stats_payload_suffix() {
  return ",\"simd_level\":\"" +
         std::string(tensor::simd::level_name(tensor::simd::active_level())) +
         "\",\"obs\":" + obs::MetricsRegistry::global().snapshot_json();
}

std::string control_error_line(const std::string& message) {
  return "{\"status\":\"error\",\"error\":\"" + wire::json_escape(message) + "\"}";
}

PendingVerdict ServerScanService::submit_listing(std::string_view listing,
                                                 const std::string& version) {
  if (!version.empty()) {
    Verdict verdict;
    verdict.status = VerdictStatus::Error;
    verdict.error = "model version override '" + version +
                    "' requires a model registry (single-model daemon)";
    return PendingVerdict::resolved(std::move(verdict));
  }
  return server_.submit_listing(listing);
}

std::string ServerScanService::stats_json() {
  return "{\"server\":" + server_.stats().to_json() + stats_payload_suffix() + "}";
}

std::string ServerScanService::control(const wire::Request& request) {
  const char* op =
      request.kind == wire::Request::Kind::Reload ? "reload" : "shadow";
  return control_error_line(std::string(op) +
                            " requires a model registry (single-model daemon)");
}

}  // namespace magic::serve
