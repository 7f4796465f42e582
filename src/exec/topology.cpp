#include "exec/topology.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#ifdef __linux__
#include <sched.h>
#endif

namespace kc::exec {

namespace {

/// First line of a sysfs file, or nullopt when unreadable.
[[nodiscard]] std::optional<std::string> read_line(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  return line;
}

/// Parses the kernel's cpu-list format ("0-3,8,10-11") into ascending
/// ids. Malformed input yields an empty vector.
[[nodiscard]] std::vector<int> parse_cpu_list(std::string_view text) {
  std::vector<int> ids;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view item = text.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    int lo = 0;
    int hi = 0;
    const std::size_t dash = item.find('-');
    try {
      if (dash == std::string_view::npos) {
        lo = hi = std::stoi(std::string(item));
      } else {
        lo = std::stoi(std::string(item.substr(0, dash)));
        hi = std::stoi(std::string(item.substr(dash + 1)));
      }
    } catch (...) {
      return {};
    }
    if (lo < 0 || hi < lo || hi - lo > (1 << 20)) return {};
    for (int id = lo; id <= hi; ++id) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

/// A safe fallback shape: hardware_concurrency() anonymous cpus on one
/// node, marked restricted because the probe saw nothing.
[[nodiscard]] Topology fallback_topology() {
  Topology topo;
  const unsigned hc = std::max(1u, std::thread::hardware_concurrency());
  topo.cpus.reserve(hc);
  for (unsigned id = 0; id < hc; ++id) {
    topo.cpus.push_back({static_cast<int>(id), 0});
  }
  topo.nodes = 1;
  topo.cores = static_cast<int>(hc);
  topo.hw_threads = static_cast<int>(hc);
  topo.restricted = true;
  return topo;
}

}  // namespace

Topology probe_topology(const ProbeOptions& opts) {
  const std::string cpu_root = opts.sysfs_root + "/cpu";
  const auto online = read_line(cpu_root + "/online");
  std::vector<int> ids = online ? parse_cpu_list(*online) : std::vector<int>{};
  if (ids.empty()) return fallback_topology();

  Topology topo;
  topo.restricted = false;

  // cpu -> NUMA node, from each node's cpulist. Sparse node numbering
  // is fine; cpus not claimed by any node directory stay on node 0
  // (non-NUMA kernels have no node directories at all).
  std::vector<std::pair<int, int>> node_of;  // (cpu id, node)
  {
    std::error_code ec;
    std::filesystem::directory_iterator it(opts.sysfs_root + "/node", ec);
    if (!ec) {
      for (const auto& entry : it) {
        const std::string name = entry.path().filename().string();
        if (name.size() < 5 || name.compare(0, 4, "node") != 0) continue;
        int node = -1;
        try {
          node = std::stoi(name.substr(4));
        } catch (...) {
          continue;
        }
        const auto list = read_line(entry.path().string() + "/cpulist");
        if (!list) continue;
        for (const int cpu : parse_cpu_list(*list)) {
          node_of.emplace_back(cpu, node);
        }
      }
    }
  }
  std::sort(node_of.begin(), node_of.end());

  // Intersect with the process affinity mask: a container cpuset (or
  // taskset) narrows the usable set, and marks the host restricted.
  if (opts.affinity.has_value()) {
    std::vector<int> usable;
    usable.reserve(ids.size());
    for (const int id : ids) {
      if (std::find(opts.affinity->begin(), opts.affinity->end(), id) !=
          opts.affinity->end()) {
        usable.push_back(id);
      }
    }
    if (usable.size() < ids.size()) topo.restricted = true;
    if (!usable.empty()) ids = std::move(usable);
  } else {
#ifdef __linux__
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
      std::vector<int> usable;
      usable.reserve(ids.size());
      for (const int id : ids) {
        if (id < CPU_SETSIZE && CPU_ISSET(id, &mask)) usable.push_back(id);
      }
      if (usable.size() < ids.size()) topo.restricted = true;
      if (!usable.empty()) ids = std::move(usable);
    } else {
      topo.restricted = true;
    }
#else
    topo.restricted = true;
#endif
  }

  std::set<int> nodes;
  std::set<std::pair<int, int>> cores;  // (package, core id)
  topo.cpus.reserve(ids.size());
  for (const int id : ids) {
    const auto at = std::lower_bound(
        node_of.begin(), node_of.end(), std::pair<int, int>{id, -1});
    const int node = at != node_of.end() && at->first == id ? at->second : 0;
    topo.cpus.push_back({id, node});
    nodes.insert(node);

    const std::string base = cpu_root + "/cpu" + std::to_string(id) +
                             "/topology/";
    const auto pkg = read_line(base + "physical_package_id");
    const auto core = read_line(base + "core_id");
    try {
      if (pkg && core) {
        cores.emplace(std::stoi(*pkg), std::stoi(*core));
      } else {
        cores.emplace(0, id);  // no topology dir: count every thread
      }
    } catch (...) {
      cores.emplace(0, id);
    }
  }
  topo.nodes = static_cast<int>(nodes.size());
  topo.cores = static_cast<int>(cores.size());
  topo.hw_threads = static_cast<int>(topo.cpus.size());
  return topo;
}

const Topology& topology() noexcept {
  static const Topology topo = probe_topology(ProbeOptions{});
  return topo;
}

}  // namespace kc::exec
