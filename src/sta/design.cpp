#include "relmore/sta/design.hpp"

#include <istream>
#include <map>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "relmore/circuit/netlist.hpp"
#include "relmore/util/fault_injector.hpp"

namespace relmore::sta {

using circuit::SectionId;
using util::Diagnostic;
using util::DiagnosticsReport;
using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

struct RawPin {
  std::string net;
  std::string node;
};

struct RawInst {
  std::string name;
  std::string cell;
  std::string out_net;
  std::vector<RawPin> inputs;
  int line = 0;
};

struct RawPort {
  std::string name;
  bool is_input = false;
  std::string net;
  std::string node;  ///< output ports only
  double arrival = 0.0;
  double slew = 0.0;
  double required = 0.0;
  bool has_required = false;
  int line = 0;
};

/// Accumulates findings locally (for the returned Status) and mirrors them
/// into the caller's report when one was passed.
class Findings {
 public:
  explicit Findings(DiagnosticsReport* mirror) : mirror_(mirror) {}

  void error(ErrorCode code, std::string message, int line, std::string net = "") {
    add(code, std::move(message), line, std::move(net), false);
  }
  void warn(ErrorCode code, std::string message, int line, std::string net = "") {
    add(code, std::move(message), line, std::move(net), true);
  }

  [[nodiscard]] bool ok() const { return local_.is_ok(); }
  [[nodiscard]] Status status() const { return local_.to_status(); }
  [[nodiscard]] DiagnosticsReport* mirror() const { return mirror_; }

 private:
  void add(ErrorCode code, std::string message, int line, std::string net, bool warning) {
    Diagnostic d;
    d.code = code;
    d.message = std::move(message);
    d.line = line;
    d.net = std::move(net);
    d.warning = warning;
    if (mirror_ != nullptr) mirror_->add(d);
    local_.add(std::move(d));
  }

  DiagnosticsReport local_;
  DiagnosticsReport* mirror_;
};

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

/// Parses "key=value" into (key, value-text); returns false when `tok` has
/// no '=' sign.
bool split_option(const std::string& tok, std::string* key, std::string* text) {
  const std::size_t eq = tok.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= tok.size()) return false;
  *key = tok.substr(0, eq);
  *text = tok.substr(eq + 1);
  return true;
}

/// Parses "net:node" into its two halves.
bool split_tap(const std::string& tok, std::string* net, std::string* node) {
  const std::size_t colon = tok.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= tok.size()) return false;
  *net = tok.substr(0, colon);
  *node = tok.substr(colon + 1);
  return true;
}

/// One parsed numeric option value, with findings on failure.
bool parse_value(const std::string& text, const char* what, int line, const std::string& net,
                 Findings& findings, double* out) {
  Result<double> v = circuit::parse_spice_value_checked(text);
  if (!v.is_ok()) {
    findings.error(v.status().code(),
                   std::string(what) + ": " + v.status().message(), line, net);
    return false;
  }
  *out = v.value();
  return true;
}

}  // namespace

int Design::find_net(const std::string& net_name) const {
  for (std::size_t i = 0; i < nets.size(); ++i) {
    if (nets[i].name == net_name) return static_cast<int>(i);
  }
  return -1;
}

int Design::find_port(const std::string& port_name) const {
  for (std::size_t i = 0; i < ports.size(); ++i) {
    if (ports[i].name == port_name) return static_cast<int>(i);
  }
  return -1;
}

std::size_t Design::endpoint_count() const {
  std::size_t n = 0;
  for (const DesignPort& p : ports) {
    if (!p.is_input) ++n;
  }
  return n;
}

namespace {

/// Resolves raw references, folds pin caps, snapshots FlatTrees, and
/// levelizes. Mutates `design` in place; findings carry every failure.
void finalize_design(Design& design, const std::vector<RawInst>& raw_insts,
                     const std::vector<RawPort>& raw_ports, Findings& findings) {
  // --- resolve instances -------------------------------------------------
  // Instance and port names must be unique: find_port / path reports
  // resolve by name, and a silent duplicate would make every later query
  // answer for whichever one happened to come first.
  std::unordered_set<std::string> inst_names;
  std::unordered_set<std::string> port_names;
  for (const RawInst& ri : raw_insts) {
    if (!inst_names.insert(ri.name).second) {
      findings.error(ErrorCode::kDuplicateName, "duplicate instance '" + ri.name + "'", ri.line,
                     ri.name);
      continue;
    }
    Instance inst;
    inst.name = ri.name;
    inst.cell = design.library.find(ri.cell);
    if (inst.cell < 0) {
      findings.error(ErrorCode::kInvalidArgument, "unknown cell '" + ri.cell + "'", ri.line,
                     ri.name);
      continue;
    }
    inst.out_net = design.find_net(ri.out_net);
    if (inst.out_net < 0) {
      findings.error(ErrorCode::kInvalidArgument, "unknown output net '" + ri.out_net + "'",
                     ri.line, ri.name);
      continue;
    }
    bool pins_ok = true;
    for (const RawPin& pin : ri.inputs) {
      Instance::Pin p;
      p.net = design.find_net(pin.net);
      if (p.net < 0) {
        findings.error(ErrorCode::kInvalidArgument, "unknown input net '" + pin.net + "'",
                       ri.line, ri.name);
        pins_ok = false;
        break;
      }
      Net& in_net = design.nets[static_cast<std::size_t>(p.net)];
      const SectionId node = in_net.tree.find_by_name(pin.node);
      if (node == circuit::kInput) {
        findings.error(ErrorCode::kInvalidArgument,
                       "net '" + pin.net + "' has no node named '" + pin.node + "'", ri.line,
                       ri.name);
        pins_ok = false;
        break;
      }
      Net::Tap tap;
      tap.node = node;
      tap.is_port = false;
      tap.index = static_cast<int>(design.instances.size());
      tap.pin = static_cast<int>(inst.inputs.size());
      p.tap = static_cast<int>(in_net.taps.size());
      in_net.taps.push_back(tap);
      inst.inputs.push_back(p);
    }
    if (!pins_ok) continue;
    if (inst.inputs.empty()) {
      findings.error(ErrorCode::kInvalidArgument, "instance has no input pins", ri.line,
                     ri.name);
      continue;
    }
    Net& out = design.nets[static_cast<std::size_t>(inst.out_net)];
    if (out.driver_kind != DriverKind::kNone) {
      findings.error(ErrorCode::kInvalidArgument,
                     "net '" + ri.out_net + "' driven more than once", ri.line, ri.name);
      continue;
    }
    out.driver_kind = DriverKind::kInstance;
    out.driver_index = static_cast<int>(design.instances.size());
    design.instances.push_back(std::move(inst));
  }

  // --- resolve ports -----------------------------------------------------
  for (const RawPort& rp : raw_ports) {
    if (!port_names.insert(rp.name).second) {
      findings.error(ErrorCode::kDuplicateName, "duplicate port '" + rp.name + "'", rp.line,
                     rp.name);
      continue;
    }
    DesignPort port;
    port.name = rp.name;
    port.is_input = rp.is_input;
    port.arrival = rp.arrival;
    port.slew = rp.slew;
    port.required = rp.required;
    port.has_required = rp.has_required;
    port.net = design.find_net(rp.net);
    if (port.net < 0) {
      findings.error(ErrorCode::kInvalidArgument, "unknown net '" + rp.net + "'", rp.line,
                     rp.name);
      continue;
    }
    Net& net = design.nets[static_cast<std::size_t>(port.net)];
    if (rp.is_input) {
      if (net.driver_kind != DriverKind::kNone) {
        findings.error(ErrorCode::kInvalidArgument,
                       "net '" + rp.net + "' driven more than once", rp.line, rp.name);
        continue;
      }
      net.driver_kind = DriverKind::kPort;
      net.driver_index = static_cast<int>(design.ports.size());
    } else {
      const SectionId node = net.tree.find_by_name(rp.node);
      if (node == circuit::kInput) {
        findings.error(ErrorCode::kInvalidArgument,
                       "net '" + rp.net + "' has no node named '" + rp.node + "'", rp.line,
                       rp.name);
        continue;
      }
      Net::Tap tap;
      tap.node = node;
      tap.is_port = true;
      tap.index = static_cast<int>(design.ports.size());
      port.tap = static_cast<int>(net.taps.size());
      net.taps.push_back(tap);
    }
    design.ports.push_back(std::move(port));
  }

  // --- structural checks -------------------------------------------------
  bool have_input = false;
  bool have_endpoint = false;
  for (const DesignPort& p : design.ports) {
    (p.is_input ? have_input : have_endpoint) = true;
  }
  if (!have_input) {
    findings.error(ErrorCode::kInvalidArgument, "design has no input port", -1);
  }
  if (!have_endpoint) {
    findings.error(ErrorCode::kInvalidArgument, "design has no output port", -1);
  }
  for (const Net& net : design.nets) {
    if (net.driver_kind == DriverKind::kNone) {
      findings.error(ErrorCode::kInvalidArgument, "net is undriven", -1, net.name);
    }
    if (net.taps.empty()) {
      findings.warn(ErrorCode::kZeroTotalCapacitance, "net has no taps (dangling)", -1,
                    net.name);
    }
  }
  if (!findings.ok()) return;

  // --- fold pin caps, snapshot, precompute loads -------------------------
  design.epoch += 1;
  for (std::size_t ni = 0; ni < design.nets.size(); ++ni) {
    Net& net = design.nets[ni];
    for (const Net::Tap& tap : net.taps) {
      if (tap.is_port || tap.node == circuit::kInput) continue;
      const Instance& inst = design.instances[static_cast<std::size_t>(tap.index)];
      const Cell& cell = design.library.cell(static_cast<std::size_t>(inst.cell));
      net.tree.values(tap.node).capacitance += cell.input_cap;
    }
    net.total_cap = net.tree.total_capacitance();
    net.flat = circuit::FlatTree(net.tree);
    net.epoch = design.epoch;
  }

  // --- levelization (Kahn over net -> instance -> net edges) -------------
  const std::size_t n_nets = design.nets.size();
  std::vector<int> indegree(n_nets, 0);
  for (std::size_t ni = 0; ni < n_nets; ++ni) {
    const Net& net = design.nets[ni];
    if (net.driver_kind == DriverKind::kInstance) {
      const Instance& inst = design.instances[static_cast<std::size_t>(net.driver_index)];
      indegree[ni] = static_cast<int>(inst.inputs.size());
    }
  }
  design.topo_nets.clear();
  design.topo_nets.reserve(n_nets);
  // Ascending-index frontier keeps the order (and everything downstream of
  // it) a pure function of the design, independent of any schedule.
  std::vector<int> frontier;
  for (std::size_t ni = 0; ni < n_nets; ++ni) {
    if (indegree[ni] == 0) {
      frontier.push_back(static_cast<int>(ni));
      design.nets[ni].level = 0;
    }
  }
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const int ni = frontier[head];
    design.topo_nets.push_back(ni);
    const Net& net = design.nets[static_cast<std::size_t>(ni)];
    for (const Net::Tap& tap : net.taps) {
      if (tap.is_port) continue;
      const Instance& inst = design.instances[static_cast<std::size_t>(tap.index)];
      const auto out = static_cast<std::size_t>(inst.out_net);
      Net& out_net = design.nets[out];
      out_net.level = std::max(out_net.level, net.level + 1);
      if (--indegree[out] == 0) frontier.push_back(inst.out_net);
    }
  }
  if (design.topo_nets.size() != n_nets) {
    for (std::size_t ni = 0; ni < n_nets; ++ni) {
      if (indegree[ni] > 0) {
        findings.error(ErrorCode::kCycle, "net is part of a combinational cycle", -1,
                       design.nets[ni].name);
        break;  // one representative; a cycle lists every member otherwise
      }
    }
  }
}

}  // namespace

Result<Design> read_design_checked(std::istream& is, CellLibrary base,
                                   DiagnosticsReport* report) {
  Findings findings(report);
  Design design;
  design.library = std::move(base);
  std::vector<RawInst> raw_insts;
  std::vector<RawPort> raw_ports;

  std::string line;
  int line_no = 0;
  std::size_t total_sections = 0;
  constexpr std::size_t kMaxDesignSections = 4u << 20;  // 4M sections across all nets
  while (std::getline(is, line)) {
    ++line_no;
    // Injected truncation behaves like the stream ending mid-design: stop
    // reading and report it, so downstream validation sees a short design
    // with a named diagnostic rather than a silent one.
    if (util::fault_should_fire(util::FaultSite::kParseTruncate)) {
      findings.error(ErrorCode::kParseError, "input truncated (injected fault)", line_no);
      break;
    }
    const std::vector<std::string> tok = tokenize(line);
    if (tok.empty() || tok[0][0] == '#') continue;
    const std::string& kw = tok[0];

    if (kw == "design") {
      if (tok.size() >= 2) design.name = tok[1];
    } else if (kw == "cell") {
      if (tok.size() < 2) {
        findings.error(ErrorCode::kParseError, "cell: missing name", line_no);
        continue;
      }
      LinearCellSpec spec;
      spec.name = tok[1];
      spec.drive_r = 0.0;
      bool ok = true;
      for (std::size_t i = 2; i < tok.size() && ok; ++i) {
        std::string key;
        std::string text;
        if (!split_option(tok[i], &key, &text)) {
          findings.error(ErrorCode::kParseError, "cell: expected key=value, got '" + tok[i] + "'",
                         line_no, spec.name);
          ok = false;
          break;
        }
        double v = 0.0;
        if (!parse_value(text, "cell", line_no, spec.name, findings, &v)) {
          ok = false;
          break;
        }
        if (key == "r") {
          spec.drive_r = v;
        } else if (key == "cap") {
          spec.input_cap = v;
        } else if (key == "intrinsic") {
          spec.intrinsic = v;
        } else if (key == "slewgain") {
          spec.slew_gain = v;
        } else if (key == "slewfactor") {
          spec.slew_factor = v;
        } else {
          findings.error(ErrorCode::kParseError, "cell: unknown key '" + key + "'", line_no,
                         spec.name);
          ok = false;
        }
      }
      if (!ok) continue;
      Result<Cell> cell = linear_cell_checked(spec);
      if (!cell.is_ok()) {
        findings.error(cell.status().code(), cell.status().message(), line_no, spec.name);
        continue;
      }
      design.library.add(std::move(cell).value());
    } else if (kw == "net") {
      if (tok.size() < 2) {
        findings.error(ErrorCode::kParseError, "net: missing name", line_no);
        continue;
      }
      const std::string net_name = tok[1];
      if (design.find_net(net_name) >= 0) {
        findings.error(ErrorCode::kDuplicateName, "duplicate net '" + net_name + "'", line_no,
                       net_name);
      }
      // Collect the block verbatim up to `end`, then hand it to the tree
      // netlist reader with this net's context (names + line offsets).
      const int block_start = line_no;
      std::string block;
      bool closed = false;
      while (std::getline(is, line)) {
        ++line_no;
        const std::vector<std::string> inner = tokenize(line);
        if (!inner.empty() && inner[0] == "end") {
          closed = true;
          break;
        }
        block += line;
        block += '\n';
      }
      if (!closed) {
        findings.error(ErrorCode::kParseError, "net '" + net_name + "': missing 'end'",
                       block_start, net_name);
        break;
      }
      circuit::ReadContext ctx;
      ctx.net = net_name;
      ctx.line_offset = block_start;
      ctx.report = findings.mirror();
      std::istringstream block_is(block);
      Result<circuit::RlcTree> tree = circuit::read_tree_netlist_checked(block_is, ctx);
      if (!tree.is_ok()) {
        const Status& s = tree.status();
        findings.error(s.code(), s.message(), s.line() >= 0 ? s.line() : block_start, net_name);
        continue;
      }
      total_sections += tree.value().size();
      if (total_sections > kMaxDesignSections) {
        findings.error(ErrorCode::kSizeLimit, "design exceeds the total section ceiling",
                       line_no, net_name);
        break;
      }
      Net net;
      net.name = net_name;
      net.tree = std::move(tree).value();
      design.nets.push_back(std::move(net));
    } else if (kw == "input" || kw == "output") {
      RawPort port;
      port.is_input = kw == "input";
      port.line = line_no;
      if (tok.size() < 3) {
        findings.error(ErrorCode::kParseError, kw + ": expected <port> <net>", line_no);
        continue;
      }
      port.name = tok[1];
      if (port.is_input) {
        port.net = tok[2];
      } else if (!split_tap(tok[2], &port.net, &port.node)) {
        findings.error(ErrorCode::kParseError, "output: expected <net>:<node>, got '" + tok[2] +
                           "'",
                       line_no, port.name);
        continue;
      }
      bool ok = true;
      for (std::size_t i = 3; i < tok.size() && ok; ++i) {
        std::string key;
        std::string text;
        if (!split_option(tok[i], &key, &text)) {
          findings.error(ErrorCode::kParseError, kw + ": expected key=value, got '" + tok[i] + "'",
                         line_no, port.name);
          ok = false;
          break;
        }
        double v = 0.0;
        if (!parse_value(text, kw.c_str(), line_no, port.name, findings, &v)) {
          ok = false;
          break;
        }
        if (key == "at" && port.is_input) {
          port.arrival = v;
        } else if (key == "slew" && port.is_input) {
          if (!util::valid_element_value(v)) {
            findings.error(v < 0.0 ? ErrorCode::kNegativeValue : ErrorCode::kNonFiniteValue,
                           "input: slew must be finite and non-negative", line_no, port.name);
            ok = false;
          }
          port.slew = v;
        } else if (key == "required" && !port.is_input) {
          port.required = v;
          port.has_required = true;
        } else {
          findings.error(ErrorCode::kParseError, kw + ": unknown key '" + key + "'", line_no,
                         port.name);
          ok = false;
        }
      }
      if (ok) raw_ports.push_back(std::move(port));
    } else if (kw == "inst") {
      RawInst inst;
      inst.line = line_no;
      if (tok.size() < 5) {
        findings.error(ErrorCode::kParseError,
                       "inst: expected <name> <cell> <outnet> <innet>:<node>...", line_no,
                       tok.size() >= 2 ? tok[1] : "");
        continue;
      }
      inst.name = tok[1];
      inst.cell = tok[2];
      inst.out_net = tok[3];
      bool ok = true;
      for (std::size_t i = 4; i < tok.size(); ++i) {
        RawPin pin;
        if (!split_tap(tok[i], &pin.net, &pin.node)) {
          findings.error(ErrorCode::kParseError,
                         "inst: expected <net>:<node>, got '" + tok[i] + "'", line_no, inst.name);
          ok = false;
          break;
        }
        inst.inputs.push_back(std::move(pin));
      }
      if (ok) raw_insts.push_back(std::move(inst));
    } else if (kw == "clock") {
      double v = 0.0;
      if (tok.size() < 2) {
        findings.error(ErrorCode::kParseError, "clock: missing period", line_no);
        continue;
      }
      if (parse_value(tok[1], "clock", line_no, "", findings, &v)) {
        design.clock_period = v;
      }
    } else {
      findings.error(ErrorCode::kParseError, "unknown directive '" + kw + "'", line_no);
    }
  }

  if (findings.ok()) finalize_design(design, raw_insts, raw_ports, findings);
  if (!findings.ok()) return findings.status();
  return design;
}

Design read_design(std::istream& is, CellLibrary base) {
  return read_design_checked(is, std::move(base)).value();
}

}  // namespace relmore::sta
