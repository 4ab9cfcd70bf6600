#pragma once
// ModelRegistry: several checkpoint versions served side by side, with
// atomic hot-swap of the default and shadow-mode candidate evaluation.
//
// Each version owns its model and a dedicated InferenceServer (its own
// workers, queue, cache and stats) that scores on that one model, held in a
// shared_ptr. A scan resolves
// its target version under the registry mutex, takes a reference, and
// submits outside the lock — so `reload` swaps the default pointer without
// ever blocking scans or dropping requests: in-flight verdicts are owned by
// the old version's server, which keeps living until the last reference
// drops and then drains itself (InferenceServer's destructor resolves every
// queued request before returning).
//
// Shadow mode mirrors a deterministic fraction of scan traffic to a
// candidate version: request n is mirrored iff floor((n+1)*f) > floor(n*f),
// so `mirrored` counts are exact, not probabilistic. Both verdicts are
// joined through completion hooks (no dedicated thread): when the pair is
// resolved, family agreement is counted into the registry's local counters
// and — while obs::enabled() — the process-wide "registry.shadow_*"
// metrics.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "magic/classifier.hpp"
#include "obs/metrics.hpp"
#include "serve/scan_service.hpp"
#include "serve/server.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace magic::serve {

/// Point-in-time view of the registry (rendered into the `stats` payload).
struct RegistryStats {
  std::string default_version;
  std::vector<std::string> versions;  ///< sorted by name
  /// Graph-convolution operator of versions[i] ("paper"/"sage"/"tag"),
  /// parallel to `versions` — an operator A/B shadow deployment reads which
  /// formula each served version runs from here.
  std::vector<std::string> operators;
  std::uint64_t reloads = 0;
  std::string shadow_version;  ///< empty when shadow mode is off
  double shadow_fraction = 0.0;
  std::uint64_t shadow_mirrored = 0;
  std::uint64_t shadow_agreed = 0;
  std::uint64_t shadow_disagreed = 0;
  /// Pairs where either verdict was not Ok (incomparable).
  std::uint64_t shadow_failed = 0;

  std::string to_json() const;
};

/// Shadow-pair agreement predicate: true when two Ok verdicts name the
/// same family. Compares family *names*, not indices — the primary and
/// shadow verdicts come from different model versions whose family
/// orderings (or sets) can differ, so equal indices do not imply the same
/// family. Either verdict not Ok makes the pair incomparable (false; the
/// caller counts it as `shadow_failed`, not disagreement).
bool verdicts_agree(const Verdict& primary, const Verdict& shadow) noexcept;

/// ScanService over a set of named model versions.
class ModelRegistry final : public ScanService {
 public:
  /// Starts with one version (the default). `config` applies to this and
  /// every later-loaded version's InferenceServer. Throws std::logic_error
  /// when the model is not fitted (InferenceServer's constructor contract).
  ModelRegistry(std::string name, std::unique_ptr<core::MagicClassifier> model,
                ServeConfig config = {});
  ~ModelRegistry() override;

  /// Loads the checkpoint at `path` as version `name` (replacing an
  /// existing version of that name) and — when `make_default` — atomically
  /// makes it the default. Throws std::runtime_error on a bad checkpoint.
  /// The previous default keeps serving its in-flight requests.
  void load_version(const std::string& name, const std::string& path,
                    bool make_default = true);

  /// Enables shadow mode: mirror `fraction` in [0,1] of scan traffic to
  /// version `name`. Throws std::runtime_error on an unknown version.
  void set_shadow(const std::string& name, double fraction);
  void clear_shadow();

  RegistryStats registry_stats() const;
  /// The default version's server stats (the exit summary of magicd).
  ServerStats default_server_stats() const;
  std::string default_version() const;

  // ScanService:
  PendingVerdict submit_listing(std::string_view listing,
                                const std::string& version) override;
  std::string stats_json() override;
  /// Executes Reload / Shadow; never throws — failures render as
  /// {"status":"error",...} lines.
  std::string control(const wire::Request& request) override;
  std::size_t queue_capacity() const override { return config_.queue_capacity; }
  void drain() override;

 private:
  struct Version {
    std::string name;
    /// The server references the model, so the model is declared first:
    /// it is destroyed after the server has drained.
    std::unique_ptr<core::MagicClassifier> model;
    std::unique_ptr<InferenceServer> server;
  };

  std::shared_ptr<Version> make_version(std::string name,
                                        std::unique_ptr<core::MagicClassifier> model);
  /// Joins a primary/shadow verdict pair and counts family agreement.
  void score_shadow_pair(const Verdict& primary, const Verdict& shadow);

  ServeConfig config_;

  mutable util::Mutex mutex_;
  std::map<std::string, std::shared_ptr<Version>> versions_ MAGIC_GUARDED_BY(mutex_);
  std::shared_ptr<Version> default_ MAGIC_GUARDED_BY(mutex_);
  std::shared_ptr<Version> shadow_ MAGIC_GUARDED_BY(mutex_);
  double shadow_fraction_ MAGIC_GUARDED_BY(mutex_) = 0.0;
  /// Scan sequence number behind the deterministic mirror decision.
  std::uint64_t scan_serial_ MAGIC_GUARDED_BY(mutex_) = 0;
  /// Bumped and read under mutex_, so a stats snapshot pairs it with the
  /// version set it describes.
  obs::MirroredCounter reloads_{"registry.reloads"};

  /// Shadow agreement counters: bumped from verdict completion hooks on
  /// scoring threads.
  obs::MirroredCounter shadow_mirrored_{"registry.shadow_mirrored"};
  obs::MirroredCounter shadow_agreed_{"registry.shadow_agreed"};
  obs::MirroredCounter shadow_disagreed_{"registry.shadow_disagreed"};
  obs::MirroredCounter shadow_failed_{"registry.shadow_failed"};
};

}  // namespace magic::serve
