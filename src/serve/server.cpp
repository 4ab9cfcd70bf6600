#include "serve/server.hpp"

#include <exception>
#include <span>
#include <stdexcept>
#include <utility>

#include "acfg/extractor.hpp"

namespace magic::serve {

const char* to_string(VerdictStatus status) noexcept {
  switch (status) {
    case VerdictStatus::Ok: return "ok";
    case VerdictStatus::RejectedQueueFull: return "rejected_queue_full";
    case VerdictStatus::DeadlineExpired: return "deadline_expired";
    case VerdictStatus::ShuttingDown: return "shutting_down";
    case VerdictStatus::Error: return "error";
  }
  return "error";
}

InferenceServer::InferenceServer(const core::MagicClassifier& model,
                                 ServeConfig config)
    : model_(model),
      config_(config),
      queue_(config.queue_capacity),
      stats_(config.max_batch == 0 ? 1 : config.max_batch) {
  if (!model_.fitted()) {
    throw std::logic_error("InferenceServer: the model is not fitted");
  }
  if (config_.workers == 0) config_.workers = 1;
  if (config_.max_batch == 0) config_.max_batch = 1;
  if (config_.cache_bytes > 0) {
    cache_ = std::make_unique<cache::VerdictCache>(
        cache::CacheConfig{config_.cache_bytes, config_.cache_shards});
  }
  workers_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

InferenceServer::~InferenceServer() { stop(/*drain=*/true); }

double InferenceServer::elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since).count();
}

PendingVerdict InferenceServer::submit(acfg::Acfg sample,
                                       std::chrono::milliseconds deadline) {
  auto slot = std::make_shared<detail::VerdictSlot>();
  PendingVerdict handle{slot};
  stats_.on_submitted();

  Queued request;
  request.sample = std::move(sample);
  request.submitted_at = Clock::now();
  if (deadline.count() < 0) deadline = config_.default_deadline;
  if (deadline.count() > 0) request.deadline = request.submitted_at + deadline;
  request.slot = slot;

  if (cache_) {
    // Content-addressed fast path, checked *before* the queue: a hit costs
    // one hash + one shard lock and never consumes queue capacity or a
    // forward pass. The hash is kept on the request so the completion path
    // can insert the miss without rehashing.
    request.cache_key = cache::acfg_content_hash(request.sample);
    request.cacheable = true;
    if (std::optional<cache::CachedVerdict> hit = cache_->get(request.cache_key)) {
      Verdict verdict;
      verdict.status = VerdictStatus::Ok;
      verdict.prediction.family_index = hit->family_index;
      verdict.prediction.family_name = std::move(hit->family_name);
      verdict.prediction.probabilities = std::move(hit->probabilities);
      verdict.latency_ms = elapsed_ms(request.submitted_at);
      stats_.on_completed(verdict.latency_ms);
      slot->fulfil(std::move(verdict));
      return handle;
    }
  }

  if (!accepting_.load(std::memory_order_acquire) || !queue_.try_push(request)) {
    Verdict verdict;
    if (accepting_.load(std::memory_order_acquire) && !queue_.closed()) {
      verdict.status = VerdictStatus::RejectedQueueFull;
      stats_.on_rejected_full();
    } else {
      verdict.status = VerdictStatus::ShuttingDown;
      stats_.on_rejected_shutdown();
    }
    verdict.latency_ms = elapsed_ms(request.submitted_at);
    slot->fulfil(std::move(verdict));
  }
  return handle;
}

PendingVerdict InferenceServer::submit_listing(std::string_view listing,
                                               std::chrono::milliseconds deadline) {
  try {
    return submit(acfg::extract_acfg_from_listing(listing), deadline);
  } catch (const std::exception& e) {
    stats_.on_submitted();
    stats_.on_failed();
    auto slot = std::make_shared<detail::VerdictSlot>();
    Verdict verdict;
    verdict.status = VerdictStatus::Error;
    verdict.error = e.what();
    slot->fulfil(std::move(verdict));
    return PendingVerdict{slot};
  }
}

Verdict InferenceServer::scan(acfg::Acfg sample) {
  return submit(std::move(sample)).get();
}

Verdict InferenceServer::scan_listing(std::string_view listing) {
  return submit_listing(listing).get();
}

ServerStats InferenceServer::stats() const {
  ServerStats out = stats_.snapshot(queue_.size(), workers_.size());
  if (cache_) out.cache = cache_->stats();
  return out;
}

void InferenceServer::cache_store(const Queued& request,
                                  const core::Prediction& prediction) {
  if (!cache_ || !request.cacheable) return;
  cache::CachedVerdict value;
  value.family_index = prediction.family_index;
  value.family_name = prediction.family_name;
  value.probabilities = prediction.probabilities;
  cache_->insert(request.cache_key, std::move(value));
}

void InferenceServer::worker_loop() {
  // This worker's scratch and batch buffer, reused for its lifetime.
  nn::InferenceWorkspace workspace;
  std::vector<Queued> batch;
  batch.reserve(config_.max_batch);
  // Never waits for a batch to fill: a lone request is scored at once.
  while (queue_.pop_batch(batch, config_.max_batch)) {
    stats_.on_batch(batch.size());
    execute_batch(batch, workspace);
  }
}

void InferenceServer::execute_batch(std::vector<Queued>& batch,
                                    nn::InferenceWorkspace& workspace) {
  // Shed expired requests first so they neither inflate the pack nor get
  // scored (load shedding).
  std::vector<Queued*> live;
  live.reserve(batch.size());
  for (Queued& request : batch) {
    if (request.deadline != Clock::time_point::max() &&
        Clock::now() > request.deadline) {
      Verdict verdict;
      verdict.status = VerdictStatus::DeadlineExpired;
      verdict.latency_ms = elapsed_ms(request.submitted_at);
      stats_.on_expired();
      request.slot->fulfil(std::move(verdict));
    } else {
      live.push_back(&request);
    }
  }
  if (live.empty()) return;

  if (live.size() > 1) {
    try {
      std::vector<const acfg::Acfg*> graphs;
      graphs.reserve(live.size());
      for (Queued* request : live) graphs.push_back(&request->sample);
      const core::GraphBatch packed =
          core::GraphBatch::pack(std::span<const acfg::Acfg* const>(graphs));
      std::vector<core::Prediction> preds = model_.predict_packed(packed, workspace);
      stats_.on_packed_batch();
      for (std::size_t i = 0; i < live.size(); ++i) {
        cache_store(*live[i], preds[i]);
        Verdict verdict;
        verdict.prediction = std::move(preds[i]);
        verdict.status = VerdictStatus::Ok;
        verdict.latency_ms = elapsed_ms(live[i]->submitted_at);
        stats_.on_completed(verdict.latency_ms);
        live[i]->slot->fulfil(std::move(verdict));
      }
      return;
    } catch (const std::exception&) {
      // Per-item fallback: one malformed graph must not fail the whole
      // micro-batch, and per-item scoring attributes the error to the
      // request that caused it.
    }
  }
  for (Queued* request : live) process(*request, workspace);
}

void InferenceServer::process(Queued& request, nn::InferenceWorkspace& workspace) {
  Verdict verdict;
  if (request.deadline != Clock::time_point::max() &&
      Clock::now() > request.deadline) {
    verdict.status = VerdictStatus::DeadlineExpired;
    verdict.latency_ms = elapsed_ms(request.submitted_at);
    stats_.on_expired();
    request.slot->fulfil(std::move(verdict));
    return;
  }
  try {
    const core::GraphBatch one =
        core::GraphBatch::pack(std::span<const acfg::Acfg>(&request.sample, 1));
    verdict.prediction = std::move(model_.predict_packed(one, workspace).front());
    verdict.status = VerdictStatus::Ok;
    cache_store(request, verdict.prediction);
  } catch (const std::exception& e) {
    verdict.status = VerdictStatus::Error;
    verdict.error = e.what();
  }
  verdict.latency_ms = elapsed_ms(request.submitted_at);
  if (verdict.ok()) {
    stats_.on_completed(verdict.latency_ms);
  } else {
    stats_.on_failed();
  }
  request.slot->fulfil(std::move(verdict));
}

void InferenceServer::stop(bool drain) {
  {
    util::MutexLock lock(stop_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  accepting_.store(false, std::memory_order_release);
  if (drain) {
    queue_.close();  // workers finish everything already queued
  } else {
    for (Queued& request : queue_.close_and_drain()) {
      Verdict verdict;
      verdict.status = VerdictStatus::ShuttingDown;
      verdict.latency_ms = elapsed_ms(request.submitted_at);
      stats_.on_rejected_shutdown();
      request.slot->fulfil(std::move(verdict));
    }
  }
  for (util::JoinThread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

}  // namespace magic::serve
