#include "serve/registry.hpp"

#include <algorithm>
#include <utility>

#include "common/telemetry.hpp"
#include "netlist/content_hash.hpp"

namespace waveck::serve {

namespace {

VerifyOptions resident_options() {
  // The cache is the point of residency: repeated checks on the same
  // circuit reuse carriers/dominators across requests.
  VerifyOptions opt;
  opt.use_carrier_cache = true;
  return opt;
}

}  // namespace

ResidentCircuit::ResidentCircuit(std::string name, Circuit c,
                                 std::size_t jobs,
                                 const std::atomic<bool>* cancel_flag)
    : name_(std::move(name)),
      circuit_(std::move(c)),
      longest_path_(circuit_.longest_path()),
      verifier_(circuit_, resident_options()),
      scheduler_(verifier_, {.jobs = jobs}) {
  hash_ = content_hash_hex(circuit_);
  verifier_.set_cancel_flag(cancel_flag);
}

bool ResidentCircuit::ensure_prepared() {
  if (prepared_) return false;
  verifier_.prepare_shared();
  prepared_ = true;
  stats_.prepare_runs.fetch_add(1, std::memory_order_relaxed);
  telemetry::Registry::global().counter("serve.prepare.runs").inc();
  return true;
}

LoadOutcome CircuitRegistry::load(const std::string& name, Circuit c) {
  const std::string fresh_hash = content_hash_hex(c);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    LoadOutcome out;
    out.existing_hash = it->second->hash();
    if (out.existing_hash == fresh_hash) {
      out.resident = it->second;
      out.already_loaded = true;
    } else {
      out.hash_mismatch = true;
    }
    return out;
  }
  LoadOutcome out;
  out.resident = std::make_shared<ResidentCircuit>(name, std::move(c), jobs_,
                                                   cancel_flag_);
  by_name_.emplace(name, out.resident);
  telemetry::Registry::global().counter("serve.loads").inc();
  return out;
}

bool CircuitRegistry::unload(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool erased = by_name_.erase(name) > 0;
  if (erased) {
    telemetry::Registry::global().counter("serve.unloads").inc();
  }
  return erased;
}

ResidentPtr CircuitRegistry::get(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

std::vector<ResidentInfo> CircuitRegistry::list() {
  std::vector<ResidentInfo> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(by_name_.size());
    for (const auto& [name, res] : by_name_) {
      ResidentInfo info;
      info.name = name;
      info.hash = res->hash();
      info.nets = res->circuit().num_nets();
      info.gates = res->circuit().num_gates();
      info.inputs = res->circuit().inputs().size();
      info.outputs = res->circuit().outputs().size();
      info.checks = res->stats().checks.load(std::memory_order_relaxed);
      out.push_back(std::move(info));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ResidentInfo& a, const ResidentInfo& b) {
              return a.name < b.name;
            });
  return out;
}

std::vector<ResidentPtr> CircuitRegistry::snapshot() {
  std::vector<ResidentPtr> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(by_name_.size());
    for (const auto& [name, res] : by_name_) out.push_back(res);
  }
  std::sort(out.begin(), out.end(),
            [](const ResidentPtr& a, const ResidentPtr& b) {
              return a->name() < b->name();
            });
  return out;
}

std::size_t CircuitRegistry::size() {
  std::lock_guard<std::mutex> lock(mu_);
  return by_name_.size();
}

}  // namespace waveck::serve
