#include "core/endorsement.h"

#include <algorithm>

#include "common/logging.h"

namespace ziziphus::core {

ZoneEndorser::ZoneEndorser(sim::Process* process,
                           const crypto::KeyRegistry* keys,
                           const ZoneInfo* zone, Callbacks callbacks)
    : process_(process),
      keys_(keys),
      zone_(zone),
      callbacks_(std::move(callbacks)) {
  ZCHECK(zone_ != nullptr);
  const std::size_t n = zone_->members.size();
  if (n < 64) all_members_ = (std::uint64_t{1} << n) - 1;
}

std::uint64_t ZoneEndorser::MemberBit(NodeId n) const {
  auto it = std::find(zone_->members.begin(), zone_->members.end(), n);
  std::size_t i = static_cast<std::size_t>(it - zone_->members.begin());
  return it == zone_->members.end() || i >= 64 ? 0 : std::uint64_t{1} << i;
}

bool ZoneEndorser::IsMember(NodeId n) const {
  return std::find(zone_->members.begin(), zone_->members.end(), n) !=
         zone_->members.end();
}

void ZoneEndorser::OnViewChange(ViewId view) {
  if (view <= view_) return;
  view_ = view;
  // Drop in-flight (not yet quorate) endorsements; the protocol layer
  // re-initiates pending requests under the new primary. Completed ones are
  // tombstones and stay.
  for (auto it = states_.begin(); it != states_.end();) {
    if (!it->second.done) {
      it = states_.erase(it);
    } else {
      ++it;
    }
  }
}

void ZoneEndorser::Start(EndorsePhase phase, std::uint64_t request_id,
                         Ballot ballot, Ballot prev,
                         crypto::Digest content_digest,
                         sim::MessagePtr payload, const MigrationOp& op,
                         std::vector<MigrationOp> ops,
                         RecordSet records, bool full_prepare) {
  ZCHECK(IsPrimary());
  auto msg = std::make_shared<EndorsePrePrepareMsg>();
  msg->phase = phase;
  msg->request_id = request_id;
  msg->view = view_;
  msg->ballot = ballot;
  msg->prev = prev;
  msg->content_digest = content_digest;
  msg->payload = std::move(payload);
  msg->op = op;
  msg->ops = std::move(ops);
  msg->records = std::move(records);
  msg->full_prepare = full_prepare;
  msg->sig = keys_->Sign(process_->id(), msg->digest());
  process_->ChargeCrypto(process_->costs().crypto.sign_us);
  process_->ChargeCpu(process_->costs().send_us * zone_->members.size());
  process_->Multicast(zone_->members, msg);
}

bool ZoneEndorser::HandleMessage(const sim::MessagePtr& msg) {
  switch (msg->type()) {
    case kEndorsePrePrepare:
      process_->ChargeCpu(process_->costs().base_handle_us);
      process_->ChargeAuth(process_->costs().crypto.verify_us);
      HandlePrePrepare(
          std::static_pointer_cast<const EndorsePrePrepareMsg>(msg));
      return true;
    case kEndorsePrepare:
      process_->ChargeCpu(process_->costs().base_handle_us);
      process_->ChargeAuth(process_->costs().mac_us);
      HandlePrepare(std::static_pointer_cast<const EndorsePrepareMsg>(msg));
      return true;
    case kEndorseVote:
      // Vote tags are threshold-signature shares: cheap to check
      // individually; the assembled certificate costs one full verify at
      // its consumer.
      process_->ChargeCpu(process_->costs().base_handle_us);
      process_->ChargeAuth(process_->costs().mac_us);
      HandleVote(std::static_pointer_cast<const EndorseVoteMsg>(msg));
      return true;
    default:
      return false;
  }
}

void ZoneEndorser::HandlePrePrepare(
    const std::shared_ptr<const EndorsePrePrepareMsg>& m) {
  if (m->view != view_) return;
  if (m->from() != primary()) return;
  if (!process_->loopback() && !keys_->Verify(m->sig, m->digest())) {
    process_->scoped_counters().Inc(obs::CounterId::kEndorseBadSig);
    return;
  }
  EndorseKey key{m->request_id, m->phase};
  if (auto d = done_.find(key); d != done_.end()) {
    // Completed here: a matching duplicate changes nothing, a conflicting
    // one at the same or a lower ballot is equivocation, and a higher ballot
    // re-opens the instance below.
    if (d->second.content_digest == m->content_digest) return;
    if (m->ballot <= d->second.ballot) {
      process_->scoped_counters().Inc(
          obs::CounterId::kEndorseEquivocationDetected);
      return;
    }
    done_.erase(d);
  } else if (auto it = states_.find(key);
             (it == states_.end() || it->second.pre_prepare == nullptr) &&
             InRetiredRange(m->ballot) &&
             callbacks_.settled(key, m->ballot, &m->op)) {
    // A retired tombstone's duplicate (or a stale ballot of it); what
    // re-cast votes buffered for it goes too.
    if (it != states_.end()) states_.erase(it);
    return;
  }
  State& st = states_[key];
  if (st.pre_prepare != nullptr) {
    if (st.pre_prepare->content_digest == m->content_digest) {
      // Duplicate pre-prepare: the primary is re-driving a stalled
      // endorsement (its vote tally may have been lost to an amnesia
      // crash). Votes are idempotent — the certificate builder dedups
      // signers — so re-cast ours to let a rebuilt tally reach quorum.
      if (st.done) return;
      if (m->full_prepare) {
        // The stall can equally sit in the prepare phase: a replica whose
        // prepare quorum was lost never votes, and votes alone can't move
        // it. Re-multicast our prepare — the tally set dedups replicas —
        // so prepare-phase stragglers rebuild their quorum too.
        MulticastPrepare(*m);
      }
      if (st.voted) {
        process_->EndSpan(st.build_span);
        st.build_span = 0;
        st.voted = false;
        CastVote(key, st);
      }
      return;
    }
    if (m->ballot > st.pre_prepare->ballot) {
      // A re-led attempt (new leader or retry) with a higher ballot for the
      // same request: start a fresh endorsement instance.
      st = State{};
    } else {
      // Same ballot, different content: the primary is equivocating.
      process_->scoped_counters().Inc(
          obs::CounterId::kEndorseEquivocationDetected);
      return;
    }
  }
  if (callbacks_.validate && !callbacks_.validate(*m)) {
    process_->scoped_counters().Inc(obs::CounterId::kEndorseRejected);
    states_.erase(key);
    return;
  }
  st.pre_prepare = m;
  st.round_span = process_->BeginSpan(obs::SpanKind::kEndorseRound);
  st.builder.Reset(m->content_digest, zone_->quorum());
  for (const auto& [sig, digest] : st.early_votes) {
    st.builder.Add(sig, digest);
  }
  st.early_votes.clear();

  if (m->full_prepare) {
    MulticastPrepare(*m);
    // Prepares recorded so far may already satisfy the quorum.
    std::size_t have = st.prepares.size();
    if (!st.prepares.count(primary())) have += 1;
    if (have >= zone_->quorum()) CastVote(key, st);
  } else {
    CastVote(key, st);
  }
  MaybeFinish(key, st);
}

void ZoneEndorser::HandlePrepare(
    const std::shared_ptr<const EndorsePrepareMsg>& m) {
  if (m->view != view_) return;
  if (!IsMember(m->replica) || m->replica != m->from()) return;
  if (!process_->loopback() && !keys_->Verify(m->sig, m->digest())) {
    return;
  }
  EndorseKey key{m->request_id, m->phase};
  if (auto d = done_.find(key); d != done_.end()) {
    if (d->second.content_digest == m->content_digest) {
      d->second.preparers |= MemberBit(m->replica);
      MaybeForget(d);
    }
    return;
  }
  State& st = states_[key];
  if (st.pre_prepare != nullptr &&
      st.pre_prepare->content_digest != m->content_digest) {
    return;
  }
  st.prepares.insert(m->replica);
  if (st.pre_prepare == nullptr || st.voted) return;
  std::size_t have = st.prepares.size();
  if (!st.prepares.count(primary())) have += 1;  // pre-prepare counts
  if (have >= zone_->quorum()) CastVote(key, st);
}

void ZoneEndorser::MulticastPrepare(const EndorsePrePrepareMsg& m) {
  auto prep = std::make_shared<EndorsePrepareMsg>();
  prep->phase = m.phase;
  prep->request_id = m.request_id;
  prep->view = view_;
  prep->content_digest = m.content_digest;
  prep->replica = process_->id();
  prep->sig = keys_->Sign(process_->id(), prep->digest());
  process_->ChargeCrypto(process_->costs().mac_us);
  process_->ChargeCpu(process_->costs().send_us * zone_->members.size());
  process_->Multicast(zone_->members, prep);
}

void ZoneEndorser::CastVote(const EndorseKey& key, State& st) {
  if (st.voted || st.pre_prepare == nullptr) return;
  st.voted = true;
  st.build_span = process_->BeginSpan(obs::SpanKind::kCertBuild);
  auto vote = std::make_shared<EndorseVoteMsg>();
  vote->phase = key.phase;
  vote->request_id = key.request_id;
  vote->view = view_;
  vote->content_digest = st.pre_prepare->content_digest;
  vote->replica = process_->id();
  vote->sig = keys_->Sign(process_->id(), vote->content_digest);
  process_->ChargeCrypto(process_->costs().crypto.sign_us);
  process_->ChargeCpu(process_->costs().send_us * zone_->members.size());
  process_->Multicast(zone_->members, vote);
  if (st.done) Retire(key);
}

void ZoneEndorser::HandleVote(
    const std::shared_ptr<const EndorseVoteMsg>& m) {
  if (m->view != view_) return;
  if (!IsMember(m->replica) || m->replica != m->from()) return;
  if (!process_->loopback() &&
      !keys_->Verify(m->sig, m->content_digest)) {
    process_->scoped_counters().Inc(obs::CounterId::kEndorseBadVote);
    return;
  }
  EndorseKey key{m->request_id, m->phase};
  auto d = done_.find(key);
  if (d != done_.end()) {
    if (d->second.content_digest == m->content_digest) {
      if (callbacks_.on_late_vote) callbacks_.on_late_vote(key, m->sig);
      d->second.voters |= MemberBit(m->replica);
      MaybeForget(d);
    }
    return;
  }
  State& st = states_[key];
  if (st.pre_prepare != nullptr &&
      st.pre_prepare->content_digest != m->content_digest) {
    return;
  }
  if (st.done) {
    if (callbacks_.on_late_vote) callbacks_.on_late_vote(key, m->sig);
    st.voters |= MemberBit(m->replica);
    return;
  }
  if (st.pre_prepare == nullptr) {
    // Votes can outrun the pre-prepare; buffer until the digest is fixed.
    st.early_votes.emplace_back(m->sig, m->content_digest);
    return;
  }
  st.builder.Add(m->sig, m->content_digest);
  MaybeFinish(key, st);
}

void ZoneEndorser::MaybeFinish(const EndorseKey& key, State& st) {
  if (st.done || st.pre_prepare == nullptr) return;
  if (!st.builder.Complete()) return;
  st.done = true;
  process_->EndSpan(st.build_span);
  st.build_span = 0;
  process_->EndSpan(st.round_span);
  st.round_span = 0;
  // Retire before the callback so it sees a consistent endorser; what it
  // gets (pre-prepare, certificate) is held outside the retired state.
  std::shared_ptr<const EndorsePrePrepareMsg> pp = st.pre_prepare;
  for (const crypto::Signature& sig : st.builder.certificate().signatures) {
    st.voters |= MemberBit(sig.signer);
  }
  crypto::CertificateBuilder builder = std::move(st.builder);
  if (st.voted) Retire(key);
  if (callbacks_.on_quorum) {
    callbacks_.on_quorum(key, *pp, builder.certificate());
  }
}

void ZoneEndorser::Retire(const EndorseKey& key) {
  auto it = states_.find(key);
  const State& st = it->second;
  Tombstone t{st.pre_prepare->ballot, st.pre_prepare->content_digest,
              st.voters, 0, st.pre_prepare->full_prepare};
  for (NodeId n : st.prepares) t.preparers |= MemberBit(n);
  states_.erase(it);
  MaybeForget(done_.insert_or_assign(key, t).first);
}

bool ZoneEndorser::Heard(const Tombstone& t) const {
  return all_members_ != 0 && (t.voters & all_members_) == all_members_ &&
         (!t.full_prepare || (t.preparers & all_members_) == all_members_);
}

void ZoneEndorser::MaybeForget(
    std::unordered_map<EndorseKey, Tombstone, EndorseKeyHash>::iterator it) {
  const Ballot b = it->second.ballot;
  if (!Heard(it->second) || !callbacks_.settled ||
      !callbacks_.settled(it->first, b, nullptr)) {
    return;
  }
  auto& [lo, hi] = retired_.try_emplace(b.zone, b, b).first->second;
  lo = std::min(lo, b);
  hi = std::max(hi, b);
  done_.erase(it);
}

bool ZoneEndorser::InRetiredRange(Ballot ballot) const {
  auto it = retired_.find(ballot.zone);
  return it != retired_.end() && it->second.first <= ballot &&
         ballot <= it->second.second;
}

void ZoneEndorser::Settle(std::uint64_t request_id) {
  for (EndorsePhase phase :
       {EndorsePhase::kPropose, EndorsePhase::kPromise, EndorsePhase::kAccept,
        EndorsePhase::kAccepted, EndorsePhase::kCommit,
        EndorsePhase::kMigrationState, EndorsePhase::kMigrationAppend,
        EndorsePhase::kCrossSource}) {
    auto it = done_.find(EndorseKey{request_id, phase});
    if (it != done_.end()) MaybeForget(it);
  }
}

bool ZoneEndorser::IsDone(const EndorseKey& key) const {
  if (done_.count(key) != 0) return true;
  auto it = states_.find(key);
  return it != states_.end() && it->second.done;
}

ZoneEndorser::RetentionStats ZoneEndorser::retention() const {
  RetentionStats r;
  r.live = states_.size();
  r.tombstones = done_.size();
  for (const auto& [key, st] : states_) {
    r.approx_bytes += 192 + st.prepares.size() * 40 +
                      st.early_votes.size() * 24 +
                      st.builder.count() * 16;
  }
  r.approx_bytes += done_.size() * 80 + retired_.size() * 48;
  return r;
}

}  // namespace ziziphus::core
