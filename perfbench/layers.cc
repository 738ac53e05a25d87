#include "layers.h"

#include "core/lazy_sync.h"
#include "core/messages.h"
#include "pbft/messages.h"

namespace perfbench {

namespace pbft = ziziphus::pbft;
namespace core = ziziphus::core;
using ziziphus::sim::MessageType;

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kTimer:
      return "timer";
    case Layer::kPbft:
      return "pbft";
    case Layer::kClient:
      return "client";
    case Layer::kReadsServe:
      return "reads_serve";
    case Layer::kReadsVerify:
      return "reads_verify";
    case Layer::kEndorse:
      return "endorse";
    case Layer::kSync:
      return "sync";
    case Layer::kMig:
      return "mig";
    case Layer::kLazy:
      return "lazy";
    case Layer::kOther:
    case Layer::kCount:
      break;
  }
  return "other";
}

Layer LayerOf(MessageType type) {
  // Named enumerators, not numbers: renaming or renumbering a message type
  // either fails to compile here or is caught by the header scan in
  // test_perfbench.py, which asserts every enumerator has a row.
  switch (type) {
    case pbft::kClientRequest:
    case pbft::kPrePrepare:
    case pbft::kPrepare:
    case pbft::kCommit:
    case pbft::kCheckpoint:
    case pbft::kViewChange:
    case pbft::kNewView:
    case pbft::kStateRequest:
    case pbft::kStateResponse:
    case pbft::kFastVote:
      return Layer::kPbft;
    case pbft::kClientReply:
    case core::kMigrationReply:
    case core::kMigrationDone:
      return Layer::kClient;
    case pbft::kReadRequest:
      return Layer::kReadsServe;
    case pbft::kReadReply:
      return Layer::kReadsVerify;
    case core::kEndorsePrePrepare:
    case core::kEndorsePrepare:
    case core::kEndorseVote:
      return Layer::kEndorse;
    case core::kPropose:
    case core::kPromise:
    case core::kAccept:
    case core::kAccepted:
    case core::kGlobalCommit:
    case core::kResponseQuery:
    case core::kCrossPropose:
    case core::kPrepared:
      return Layer::kSync;
    case core::kMigrationRequest:
    case core::kStateTransfer:
    case core::kMigrationManifest:
    case core::kMigrationChunk:
      return Layer::kMig;
    case core::kZoneCheckpoint:
      return Layer::kLazy;
    default:
      return Layer::kOther;
  }
}

std::vector<std::pair<MessageType, Layer>> LayerTable() {
  std::vector<std::pair<MessageType, Layer>> out;
  // Message types are small tags in disjoint per-module ranges; scanning
  // the whole 8-bit space finds every mapped one.
  for (unsigned t = 0; t < 256; ++t) {
    Layer l = LayerOf(static_cast<MessageType>(t));
    if (l != Layer::kOther) out.emplace_back(static_cast<MessageType>(t), l);
  }
  return out;
}

double WallProfile::total_seconds() const {
  double sum = 0;
  for (double s : seconds) sum += s;
  return sum;
}

}  // namespace perfbench
