// Ablation: where should the distribution + size information go?
//
// Paper §4.1 step 1: "for collections having a small number of elements,
// the latency involved in this parallel write may be greater than the time
// that would be required to communicate the information to node zero" —
// so pC++/streams gathers the size table to node 0 for small collections
// and writes it in parallel for large ones. This ablation forces each
// strategy across element counts and shows the crossover.
#include <cstdio>

#include "bench/bench_obs.h"
#include "src/collection/collection.h"
#include "src/dstream/dstream.h"
#include "src/util/options.h"
#include "src/util/strfmt.h"
#include "src/util/table.h"

using namespace pcxx;

namespace {

double runOnce(int nprocs, std::int64_t elements,
               ds::StreamOptions::HeaderPolicy policy,
               benchutil::MetricsDump& dump, const std::string& label) {
  rt::Machine machine(nprocs, rt::CommModel{100e-6, 1.25e-8});
  pfs::PfsConfig cfg;
  cfg.perf = pfs::paragonParams();
  pfs::Pfs fs(cfg);
  dump.attach(machine);

  // Small (int) elements: the size table is twice the data, so the header
  // strategy dominates the record cost — the regime §4.1 discusses.
  machine.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(elements, &P, coll::DistKind::Block);
    coll::Collection<int> data(&d);
    data.forEachLocal([](int& v, std::int64_t i) {
      v = static_cast<int>(i);
    });
    ds::StreamOptions so;
    so.headerPolicy = policy;
    ds::OStream s(fs, &d, "ablation_hdr", so);
    s << data;
    s.write();
  });
  dump.capture(label);
  return machine.maxVirtualTime();
}

}  // namespace

int main(int argc, char** argv) {
  Options opts("ablation_header_strategy",
               "gathered vs parallel size-table write (Paragon model)");
  opts.add("nprocs", "8", "node count");
  opts.add("metrics-json", "", "write per-run obs snapshots to this path");
  if (!opts.parse(argc, argv)) return 0;
  const int nprocs = static_cast<int>(opts.getInt("nprocs"));
  benchutil::MetricsDump dump(opts.get("metrics-json"));

  Table t("Ablation: output time, size table gathered to node 0 vs written "
          "in parallel (Paragon model, " +
          std::to_string(nprocs) + " nodes)");
  t.setHeader({"# of elements", "Gathered", "Parallel", "winner"});
  for (std::int64_t n :
       {64ll, 1000ll, 16000ll, 128000ll, 512000ll, 2048000ll}) {
    const double gathered =
        runOnce(nprocs, n, ds::StreamOptions::HeaderPolicy::ForceGathered,
                dump, strfmt("elements=%lld gathered",
                             static_cast<long long>(n)));
    const double parallel =
        runOnce(nprocs, n, ds::StreamOptions::HeaderPolicy::ForceParallel,
                dump, strfmt("elements=%lld parallel",
                             static_cast<long long>(n)));
    t.addRow({strfmt("%lld", static_cast<long long>(n)),
              strfmt("%.3f sec.", gathered), strfmt("%.3f sec.", parallel),
              gathered <= parallel ? "gathered" : "parallel"});
  }
  t.setFootnote(
      "pC++/streams' Auto policy picks gathered below 4096 elements and "
      "parallel from there on (kParallelHeaderThreshold, "
      "src/dstream/ostream.cpp)");
  t.print();
  dump.write();
  return 0;
}
