// Host CPU topology probe.
//
// A one-shot, hwloc-free read of /sys/devices/system/{cpu,node}:
// online cpus, their NUMA nodes and physical cores, intersected with
// the process affinity mask. It degrades gracefully (one node,
// `restricted` set) in containers and on non-Linux hosts. Nothing in
// the solve path reads it; it describes the host a measurement ran
// on, so the bench JSON headers (BENCH_exec.json, BENCH_kernels.json)
// record nodes, cores, hw_threads and `restricted`, and perfbench's
// environment line records `restricted`.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace kc::exec {

/// What the host looks like to this process. Probed once (see
/// topology()); every field falls back to a safe single-node shape
/// when sysfs is absent or unreadable.
struct Topology {
  /// One hardware thread available to this process.
  struct Cpu {
    int id = 0;    ///< kernel cpu number (cpuN in sysfs)
    int node = 0;  ///< NUMA node the cpu belongs to
  };

  /// Available hardware threads (online ∩ process affinity mask),
  /// ascending by id. Never empty.
  std::vector<Cpu> cpus;

  int nodes = 1;       ///< distinct NUMA nodes among `cpus`
  int cores = 1;       ///< distinct physical cores among `cpus`
  int hw_threads = 1;  ///< cpus.size()

  /// True when the probe could not see the full machine: the affinity
  /// mask excludes online cpus (container cpuset), or sysfs was
  /// unreadable.
  bool restricted = false;
};

/// Inputs of one probe, exposed so tests can point the parser at a
/// synthetic sysfs tree and a fabricated affinity mask instead of the
/// live host. Production code never constructs one: topology() probes
/// with the defaults below.
struct ProbeOptions {
  /// Root holding the `cpu/` and `node/` hierarchies.
  std::string sysfs_root = "/sys/devices/system";

  /// When set, stands in for the process affinity mask: the cpu ids
  /// this process may run on. When unset the real mask is read via
  /// sched_getaffinity (Linux) or treated as unknowable (elsewhere).
  std::optional<std::vector<int>> affinity;
};

/// One uncached probe of `opts.sysfs_root`. The seam behind
/// topology(); deterministic given a fixed tree and affinity.
[[nodiscard]] Topology probe_topology(const ProbeOptions& opts);

/// The process-wide topology, probed on first use and cached.
[[nodiscard]] const Topology& topology() noexcept;

}  // namespace kc::exec
