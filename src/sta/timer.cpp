#include "relmore/timer.hpp"

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string_view>
#include <utility>
#include <vector>

#include "relmore/eed/model.hpp"

namespace relmore {

using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

/// Open-addressing hash table of indices into a list the design owns,
/// keyed by each item's `name` (4 bytes per slot, load factor <= 1/2). A
/// duplicate name keeps its first index, matching a front-to-back scan.
template <class Item>
class NameTable {
 public:
  explicit NameTable(const std::vector<Item>& items) : items_(items) {
    std::size_t capacity = 2;
    while (capacity < 2 * items.size()) capacity *= 2;
    slots_.assign(capacity, -1);
    for (std::size_t i = 0; i < items.size(); ++i) {
      std::size_t s = slot(items[i].name);
      while (slots_[s] >= 0 && items[static_cast<std::size_t>(slots_[s])].name != items[i].name) {
        s = (s + 1) & (slots_.size() - 1);
      }
      if (slots_[s] < 0) slots_[s] = static_cast<std::int32_t>(i);
    }
  }

  /// Index of the item named `name`, or -1.
  [[nodiscard]] int find(std::string_view name) const {
    for (std::size_t s = slot(name); slots_[s] >= 0; s = (s + 1) & (slots_.size() - 1)) {
      if (items_[static_cast<std::size_t>(slots_[s])].name == name) return slots_[s];
    }
    return -1;
  }

 private:
  [[nodiscard]] std::size_t slot(std::string_view name) const {
    return std::hash<std::string_view>{}(name) & (slots_.size() - 1);
  }

  const std::vector<Item>& items_;
  std::vector<std::int32_t> slots_;
};

}  // namespace

struct Timer::NameIndex {
  explicit NameIndex(const sta::Design& d) : nets(d.nets), instances(d.instances), ports(d.ports) {}

  NameTable<sta::Net> nets;
  NameTable<sta::Instance> instances;
  NameTable<sta::DesignPort> ports;
};

Timer::Timer() = default;
Timer::~Timer() = default;
Timer::Timer(Timer&&) noexcept = default;
Timer& Timer::operator=(Timer&&) noexcept = default;

Status Timer::load(std::istream& is, sta::CellLibrary library, util::DiagnosticsReport* report) {
  Result<sta::Design> design = sta::read_design_checked(is, std::move(library), report);
  if (!design.is_ok()) return design.status();
  return load(std::move(design).value());
}

Status Timer::load(sta::Design design) {
  auto owned = std::make_unique<sta::Design>(std::move(design));
  // Reject before replacing: a failed load keeps the previous design.
  Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(*owned);
  if (!graph.is_ok()) return graph.status();
  design_ = std::move(owned);
  graph_ = std::move(graph).value();
  result_.reset();
  cache_.clear();
  names_.reset();
  return Status::ok();
}

Result<sta::TimingSummary> Timer::analyze(const sta::AnalyzeOptions& options) {
  if (design_ == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "Timer: no design loaded");
  }
  // The Timer's own cache rides along unless the caller plugged one in.
  // Injected per call (not stored in options_) so a moved Timer never
  // leaves a stale pointer to the old object's member behind.
  sta::AnalyzeOptions effective = options;
  if (effective.cache == nullptr) effective.cache = &cache_;
  Result<sta::TimingResult> result = graph_->analyze_checked(effective);
  if (!result.is_ok()) return result.status();
  result_ = std::move(result).value();
  options_ = options;
  return result_->summary;
}

Status Timer::ensure_analyzed() {
  // A deadline/cancel-stopped result is queryable but not a valid cache:
  // re-analyze so a transient stop never pins partial timing forever.
  if (result_.has_value() && result_->stop_status.is_ok()) return Status::ok();
  Result<sta::TimingSummary> summary = analyze(options_);
  return summary.is_ok() ? Status::ok() : summary.status();
}

Result<double> Timer::slack(const std::string& endpoint) {
  if (design_ == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "Timer: no design loaded");
  }
  if (Status s = ensure_analyzed(); !s.is_ok()) return s;
  const int pi = names().ports.find(endpoint);
  if (pi < 0) return Status(ErrorCode::kInvalidArgument, "unknown port '" + endpoint + "'");
  return sta::endpoint_slack_checked(*design_, *result_, pi);
}

Result<std::vector<sta::PathReport>> Timer::report_worst_paths(std::size_t k) {
  if (design_ == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "Timer: no design loaded");
  }
  if (Status s = ensure_analyzed(); !s.is_ok()) return s;
  return sta::worst_paths_checked(*design_, *result_, k);
}

Status Timer::report_timing(std::ostream& os, std::size_t k) {
  Result<std::vector<sta::PathReport>> paths = report_worst_paths(k);
  if (!paths.is_ok()) return paths.status();
  os << sta::format_summary(result_->summary) << "\n";
  for (const sta::PathReport& path : paths.value()) {
    os << sta::format_path(path) << "\n";
  }
  return Status::ok();
}

const sta::TimingResult* Timer::result() const {
  return result_.has_value() ? &*result_ : nullptr;
}

// --- what-if edits ---------------------------------------------------------

Timer::Edit Timer::edit() {
  return Edit(this, design_.get(), design_ != nullptr ? design_->epoch : 0);
}

const Timer::NameIndex& Timer::names() {
  if (names_ == nullptr) names_ = std::make_unique<NameIndex>(*design_);
  return *names_;
}

Status Timer::Edit::set_net_section_values(const std::string& net, const std::string& section,
                                           const circuit::SectionValues& wire) {
  if (design_ == nullptr) return Status(ErrorCode::kInvalidArgument, "edit: no design loaded");
  if (done_) return Status(ErrorCode::kTransactionState, "edit: handle already committed");
  if (design_ != timer_->design_.get()) {
    return Status(ErrorCode::kInvalidArgument, "edit: design changed since the handle was opened");
  }
  const int ni = timer_->names().nets.find(net);
  if (ni < 0) {
    return Status(ErrorCode::kInvalidArgument, "edit: unknown net").with_net(net);
  }
  const circuit::SectionId sid =
      design_->nets[static_cast<std::size_t>(ni)].flat.find_by_name(section);
  if (sid < 0) {
    return Status(ErrorCode::kInvalidArgument, "edit: net has no section named '" + section + "'")
        .with_net(net);
  }
  for (const double v : {wire.resistance, wire.inductance, wire.capacitance}) {
    if (!util::valid_element_value(v)) {
      return Status(ErrorCode::kInvalidArgument,
                    "edit: section values must be finite and non-negative")
          .with_net(net);
    }
  }
  Op op;
  op.kind = OpKind::kValue;
  op.net = ni;
  op.section = sid;
  op.wire = wire;
  ops_.push_back(op);
  return Status::ok();
}

Status Timer::Edit::set_cell(const std::string& instance, const std::string& cell) {
  if (design_ == nullptr) return Status(ErrorCode::kInvalidArgument, "edit: no design loaded");
  if (done_) return Status(ErrorCode::kTransactionState, "edit: handle already committed");
  if (design_ != timer_->design_.get()) {
    return Status(ErrorCode::kInvalidArgument, "edit: design changed since the handle was opened");
  }
  const int inst = timer_->names().instances.find(instance);
  if (inst < 0) {
    return Status(ErrorCode::kInvalidArgument, "edit: unknown instance").with_net(instance);
  }
  const int ci = design_->library.find(cell);
  if (ci < 0) {
    return Status(ErrorCode::kInvalidArgument, "edit: unknown cell '" + cell + "'")
        .with_net(instance);
  }
  Op op;
  op.kind = OpKind::kCell;
  op.instance = inst;
  op.cell = ci;
  ops_.push_back(op);
  return Status::ok();
}

Status Timer::Edit::set_port_required(const std::string& port, double required) {
  if (design_ == nullptr) return Status(ErrorCode::kInvalidArgument, "edit: no design loaded");
  if (done_) return Status(ErrorCode::kTransactionState, "edit: handle already committed");
  if (design_ != timer_->design_.get()) {
    return Status(ErrorCode::kInvalidArgument, "edit: design changed since the handle was opened");
  }
  const int pi = timer_->names().ports.find(port);
  if (pi < 0) {
    return Status(ErrorCode::kInvalidArgument, "edit: unknown port").with_net(port);
  }
  if (design_->ports[static_cast<std::size_t>(pi)].is_input) {
    return Status(ErrorCode::kInvalidArgument, "edit: '" + port + "' is not an output port")
        .with_net(port);
  }
  if (!std::isfinite(required)) {
    return Status(ErrorCode::kInvalidArgument, "edit: required time must be finite").with_net(port);
  }
  Op op;
  op.kind = OpKind::kPort;
  op.port = pi;
  op.value = required;
  ops_.push_back(op);
  return Status::ok();
}

Status Timer::Edit::set_clock_period(double period) {
  if (design_ == nullptr) return Status(ErrorCode::kInvalidArgument, "edit: no design loaded");
  if (done_) return Status(ErrorCode::kTransactionState, "edit: handle already committed");
  if (!std::isfinite(period) || period < 0.0) {
    return Status(ErrorCode::kInvalidArgument, "edit: clock period must be finite and >= 0");
  }
  Op op;
  op.kind = OpKind::kClock;
  op.value = period;
  ops_.push_back(op);
  return Status::ok();
}

Result<Timer::EditOutcome> Timer::Edit::commit() {
  if (timer_ == nullptr) return Status(ErrorCode::kInvalidArgument, "edit: no design loaded");
  return timer_->commit_edit(*this, timer_->options_);
}

Result<Timer::EditOutcome> Timer::Edit::commit(const sta::AnalyzeOptions& options) {
  if (timer_ == nullptr) return Status(ErrorCode::kInvalidArgument, "edit: no design loaded");
  return timer_->commit_edit(*this, options);
}

Result<Timer::EditOutcome> Timer::commit_edit(Edit& edit, const sta::AnalyzeOptions& options) {
  if (edit.done_) {
    return Status(ErrorCode::kTransactionState, "edit: handle already committed");
  }
  if (design_ == nullptr || edit.design_ != design_.get() || edit.epoch_ != design_->epoch) {
    return Status(ErrorCode::kInvalidArgument,
                  "edit: design changed since the handle was opened");
  }
  edit.done_ = true;  // consumed by this attempt, success or not
  sta::Design& design = *design_;

  // This commit's cell swaps in op order. An instance's working cell is
  // its last swap, else its committed cell, so later value ops fold the
  // pin caps the instance will have after the commit.
  std::vector<std::pair<int, int>> swaps;  // (instance, cell)
  const auto cell_of = [&](int inst) {
    for (auto it = swaps.rbegin(); it != swaps.rend(); ++it) {
      if (it->first == inst) return it->second;
    }
    return design.instances[static_cast<std::size_t>(inst)].cell;
  };

  // One working snapshot per touched net: a copy of its FlatTree carrying
  // this commit's values. The design is written only after every op
  // applied; a commit that stops early rolls back by dropping the copies.
  std::map<int, circuit::FlatTree> edited;
  sta::UpdateSeeds seeds;
  const auto working = [&](int ni) -> circuit::FlatTree& {
    auto it = edited.find(ni);
    if (it == edited.end()) {
      it = edited.emplace(ni, design.nets[static_cast<std::size_t>(ni)].flat).first;
    }
    return it->second;
  };
  // The folded shunt C at `node` of net `ni`: raw wire C plus the pin cap
  // of every instance input tapping the node — the finalize fold, against
  // the working cell assignment, summed in tap order (finalize's order).
  const auto folded_cap = [&](int ni, circuit::SectionId node, double wire_c) {
    double c = wire_c;
    for (const sta::Net::Tap& tap : design.nets[static_cast<std::size_t>(ni)].taps) {
      if (tap.node == node && !tap.is_port) {
        c += design.library.cell(static_cast<std::size_t>(cell_of(tap.index))).input_cap;
      }
    }
    return c;
  };

  // --- apply ops onto the working snapshots --------------------------------
  for (const Edit::Op& op : edit.ops_) {
    switch (op.kind) {
      case Edit::OpKind::kValue: {
        circuit::SectionValues v = op.wire;
        v.capacitance = folded_cap(op.net, op.section, op.wire.capacitance);
        working(op.net).set_values(op.section, v);
        seeds.forward_nets.push_back(op.net);
        break;
      }
      case Edit::OpKind::kCell: {
        const sta::Instance& inst = design.instances[static_cast<std::size_t>(op.instance)];
        const double old_cap =
            design.library.cell(static_cast<std::size_t>(cell_of(op.instance))).input_cap;
        const double new_cap = design.library.cell(static_cast<std::size_t>(op.cell)).input_cap;
        for (const sta::Instance::Pin& pin : inst.inputs) {
          circuit::FlatTree& flat = working(pin.net);
          const circuit::SectionId node =
              design.nets[static_cast<std::size_t>(pin.net)].taps[static_cast<std::size_t>(pin.tap)]
                  .node;
          const auto i = static_cast<std::size_t>(node);
          circuit::SectionValues v{flat.resistance()[i], flat.inductance()[i],
                                   flat.capacitance()[i]};
          // Exact inverse of the old fold, then the new fold, in this
          // order — bitwise-reproducible regardless of edit history.
          v.capacitance = v.capacitance - old_cap + new_cap;
          flat.set_values(node, v);
          seeds.forward_nets.push_back(pin.net);
          // The swapped arc tables move this pin's required time even when
          // the output net's driver (required, constrained) pair does not.
          seeds.backward_nets.push_back(pin.net);
        }
        seeds.forward_nets.push_back(inst.out_net);
        swaps.emplace_back(op.instance, op.cell);
        break;
      }
      case Edit::OpKind::kPort:
        seeds.backward_nets.push_back(design.ports[static_cast<std::size_t>(op.port)].net);
        break;
      case Edit::OpKind::kClock:
        seeds.clock_changed = true;
        break;
    }
  }

  // --- commit: the Design takes the working snapshots --------------------
  design.epoch += 1;
  for (auto& [ni, flat] : edited) {
    sta::Net& net = design.nets[static_cast<std::size_t>(ni)];
    net.flat = std::move(flat);
    net.epoch = design.epoch;
    // Id order, as RlcTree::total_capacitance sums it at finalize.
    net.total_cap = 0.0;
    for (const double c : net.flat.capacitance()) net.total_cap += c;
  }
  for (const Edit::Op& op : edit.ops_) {
    if (op.kind == Edit::OpKind::kPort) {
      sta::DesignPort& port = design.ports[static_cast<std::size_t>(op.port)];
      port.required = op.value;
      port.has_required = true;
    } else if (op.kind == Edit::OpKind::kClock) {
      design.clock_period = op.value;
    }
  }
  for (const auto& [inst, cell] : swaps) design.instances[static_cast<std::size_t>(inst)].cell = cell;

  // --- restamp the cache at the new epoch with the corpus's own kernel
  // (eed::analyze_checked of the net's FlatTree), so the stored models
  // are the ones a full analysis would compute. A faulted or degenerate
  // model is conservatively NOT stored — the next analyze recomputes the
  // net with full fault handling — and disables the in-place re-time (its
  // cone could not be served).
  bool can_update = true;
  const std::uint64_t fingerprint = sta::options_fingerprint(options);
  for (const auto& entry : edited) {
    const sta::Net& net = design.nets[static_cast<std::size_t>(entry.first)];
    const Result<eed::TreeModel> model = eed::analyze_checked(net.flat);
    bool healthy = model.is_ok() && model.value().fault_free();
    sta::NetModels models;
    models.taps.resize(net.taps.size());
    for (std::size_t t = 0; healthy && t < net.taps.size(); ++t) {
      const eed::NodeModel& m = model.value().at(net.taps[t].node);
      // zeta/omega_n are legitimately +inf for pure-RC nodes; NaN and
      // non-finite Elmore sums are what full analysis would flag.
      healthy = std::isfinite(m.sum_rc) && std::isfinite(m.sum_lc) && !std::isnan(m.zeta) &&
                !std::isnan(m.omega_n);
      models.taps[t] = m;
    }
    if (!healthy) {
      can_update = false;
      continue;
    }
    models.analyzed = true;
    cache_.store(static_cast<std::size_t>(entry.first), net.epoch, fingerprint,
                 std::move(models));
  }

  // --- re-time the cached analysis through the dirty cones ----------------
  EditOutcome outcome;
  if (result_.has_value() && result_->stop_status.is_ok() && can_update) {
    sta::AnalyzeOptions effective = options;
    if (effective.cache == nullptr) effective.cache = &cache_;
    Result<sta::UpdateStats> stats =
        graph_->update_checked(*result_, *effective.cache, seeds, effective);
    if (stats.is_ok() && stats.value().stop_status.is_ok()) {
      outcome.incremental = true;
      outcome.stats = stats.value();
      return outcome;
    }
    if (stats.is_ok()) outcome.stats = stats.value();  // stopped: report why
  }
  // Any fallback path: the old analysis no longer matches the design.
  result_.reset();
  return outcome;
}

}  // namespace relmore
