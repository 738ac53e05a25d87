#ifndef ZIZIPHUS_BASELINES_PBFT_PROCESS_H_
#define ZIZIPHUS_BASELINES_PBFT_PROCESS_H_

#include <functional>
#include <memory>

#include "pbft/engine.h"
#include "sim/simulation.h"

namespace ziziphus::baselines {

/// A standalone PBFT replica: one process, one engine. Used by the flat
/// PBFT baseline (a single PBFT group spanning every node in every region,
/// processing every transaction) and by the PBFT unit tests.
class PbftReplicaProcess : public sim::Process {
 public:
  /// Builds the replica's engine; tests pass one to run a Byzantine
  /// PbftEngine subclass on selected replicas.
  using EngineFactory = std::function<std::unique_ptr<pbft::PbftEngine>(
      sim::Process*, const crypto::KeyRegistry*, pbft::PbftConfig,
      pbft::StateMachine*)>;

  PbftReplicaProcess() = default;

  /// Two-phase init after registration (NodeIds must exist for `config`).
  void Init(const crypto::KeyRegistry* keys, pbft::PbftConfig config,
            std::unique_ptr<pbft::StateMachine> app,
            const EngineFactory& factory = nullptr) {
    app_ = std::move(app);
    engine_ = factory ? factory(this, keys, std::move(config), app_.get())
                      : std::make_unique<pbft::PbftEngine>(
                            this, keys, std::move(config), app_.get());
  }

  pbft::PbftEngine& engine() { return *engine_; }
  pbft::StateMachine& app() { return *app_; }

 protected:
  void OnMessage(const sim::MessagePtr& msg) override {
    engine_->HandleMessage(msg);
  }
  void OnTimer(const sim::TimerTag& tag) override {
    engine_->HandleTimer(tag);
  }

 private:
  std::unique_ptr<pbft::StateMachine> app_;
  std::unique_ptr<pbft::PbftEngine> engine_;
};

}  // namespace ziziphus::baselines

#endif  // ZIZIPHUS_BASELINES_PBFT_PROCESS_H_
