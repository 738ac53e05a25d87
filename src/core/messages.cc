#include "core/messages.h"

namespace ziziphus::core {

namespace {
std::uint64_t BallotHash(Ballot b) {
  return Hasher(0x99).Add(b.n).Add(b.zone).Finish();
}
std::uint64_t OpHash(const MigrationOp& op) {
  return Hasher(0x9a)
      .Add(op.client)
      .Add(op.source)
      .Add(op.destination)
      .Add(op.timestamp)
      .Add(op.command)
      .Add(op.cross_zone ? 1 : 0)
      .Finish();
}
}  // namespace

std::uint64_t OpsDigest(const std::vector<MigrationOp>& ops) {
  Hasher h(0x9b);
  for (const auto& op : ops) h.Add(OpHash(op));
  return h.Finish();
}

crypto::Digest ProposeContentDigest(std::uint64_t request_id, Ballot ballot,
                                    const std::vector<MigrationOp>& ops) {
  return Hasher(0x71)
      .Add(request_id)
      .Add(BallotHash(ballot))
      .Add(OpsDigest(ops))
      .Finish();
}

crypto::Digest PromiseContentDigest(std::uint64_t request_id, Ballot ballot,
                                    Ballot last_accepted, ZoneId zone) {
  return Hasher(0x72)
      .Add(request_id)
      .Add(BallotHash(ballot))
      .Add(BallotHash(last_accepted))
      .Add(zone)
      .Finish();
}

crypto::Digest AcceptContentDigest(std::uint64_t request_id, Ballot ballot,
                                   Ballot prev,
                                   const std::vector<MigrationOp>& ops) {
  return Hasher(0x73)
      .Add(request_id)
      .Add(BallotHash(ballot))
      .Add(BallotHash(prev))
      .Add(OpsDigest(ops))
      .Finish();
}

crypto::Digest AcceptedContentDigest(std::uint64_t request_id, Ballot ballot,
                                     Ballot prev, ZoneId zone) {
  return Hasher(0x74)
      .Add(request_id)
      .Add(BallotHash(ballot))
      .Add(BallotHash(prev))
      .Add(zone)
      .Finish();
}

crypto::Digest CommitContentDigest(std::uint64_t request_id, Ballot ballot,
                                   Ballot prev,
                                   const std::vector<MigrationOp>& ops) {
  return Hasher(0x75)
      .Add(request_id)
      .Add(BallotHash(ballot))
      .Add(BallotHash(prev))
      .Add(OpsDigest(ops))
      .Finish();
}

crypto::Digest StateContentDigest(std::uint64_t request_id, ClientId client,
                                  std::uint64_t records_digest) {
  return Hasher(0x76).Add(request_id).Add(client).Add(records_digest).Finish();
}

crypto::Digest PreparedContentDigest(std::uint64_t request_id,
                                     Ballot source_ballot, ZoneId zone) {
  return Hasher(0x77)
      .Add(request_id)
      .Add(BallotHash(source_ballot))
      .Add(zone)
      .Finish();
}

}  // namespace ziziphus::core
