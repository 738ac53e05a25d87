#include "core/metadata.h"

#include <algorithm>

namespace ziziphus::core {

bool ExecutedOps::Contains(ClientId client, RequestTimestamp ts) const {
  auto it = clients_.find(client);
  if (it == clients_.end()) return false;
  const Entry& e = it->second;
  if (ts <= e.floor) return true;
  for (RequestTimestamp t : e.above) {
    if (t == ts) return true;
  }
  return false;
}

bool ExecutedOps::Insert(ClientId client, RequestTimestamp ts) {
  if (Contains(client, ts)) return false;
  Entry& e = clients_[client];
  // Fill a free slot, or else displace the lowest timestamp held (the new
  // one when it is the lowest) into the floor.
  RequestTimestamp* lowest = nullptr;
  for (RequestTimestamp& t : e.above) {
    if (t == 0) {
      t = ts;
      return true;
    }
    if (lowest == nullptr || t < *lowest) lowest = &t;
  }
  if (ts < *lowest) {
    e.floor = std::max(e.floor, ts);
  } else {
    e.floor = std::max(e.floor, *lowest);
    *lowest = ts;
  }
  return true;
}

void GlobalMetadata::RegisterClient(ClientId client, ZoneId home) {
  auto it = home_.find(client);
  if (it != home_.end()) {
    clients_per_zone_[it->second]--;
  }
  home_[client] = home;
  clients_per_zone_[home]++;
}

Status GlobalMetadata::ValidateMigration(const MigrationOp& op) const {
  if (op.client == kInvalidClient || op.source == kInvalidZone ||
      op.destination == kInvalidZone) {
    return Status::InvalidArgument("malformed migration op");
  }
  if (op.source == op.destination) {
    return Status::InvalidArgument("source equals destination");
  }
  auto mit = migrations_.find(op.client);
  if (mit != migrations_.end() &&
      mit->second >= policy_.max_migrations_per_client) {
    return Status::PermissionDenied("migration quota exhausted");
  }
  auto cit = clients_per_zone_.find(op.destination);
  if (cit != clients_per_zone_.end() &&
      cit->second >= policy_.max_clients_per_zone) {
    return Status::PermissionDenied("destination zone full");
  }
  return Status::Ok();
}

std::string GlobalMetadata::Execute(const MigrationOp& op) {
  if (!executed_.Insert(op.client, op.timestamp)) return "dup";
  executed_count_++;
  Status s = ValidateMigration(op);
  if (!s.ok()) return "rejected:" + s.ToString();
  auto it = home_.find(op.client);
  ZoneId prev = it != home_.end() ? it->second : op.source;
  if (clients_per_zone_[prev] > 0) clients_per_zone_[prev]--;
  clients_per_zone_[op.destination]++;
  home_[op.client] = op.destination;
  migrations_[op.client]++;
  return "ok";
}

ZoneId GlobalMetadata::HomeOf(ClientId client) const {
  auto it = home_.find(client);
  return it == home_.end() ? kInvalidZone : it->second;
}

std::uint64_t GlobalMetadata::ClientsInZone(ZoneId zone) const {
  auto it = clients_per_zone_.find(zone);
  return it == clients_per_zone_.end() ? 0 : it->second;
}

std::uint32_t GlobalMetadata::MigrationsOf(ClientId client) const {
  auto it = migrations_.find(client);
  return it == migrations_.end() ? 0 : it->second;
}

std::uint64_t GlobalMetadata::StateDigest() const {
  std::uint64_t d = 0;
  for (const auto& [zone, count] : clients_per_zone_) {
    if (count > 0) d += Hasher(0x51).Add(zone).Add(count).Finish();
  }
  for (const auto& [client, count] : migrations_) {
    if (count > 0) d += Hasher(0x52).Add(client).Add(count).Finish();
  }
  for (const auto& [client, home] : home_) {
    d += Hasher(0x53).Add(client).Add(home).Finish();
  }
  return d;
}

}  // namespace ziziphus::core
