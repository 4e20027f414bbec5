#include "chortle/imapper.hpp"

#include "base/check.hpp"
#include "cutmap/cutmap.hpp"
#include "flowmap/flowmap.hpp"
#include "libmap/library.hpp"
#include "libmap/matcher.hpp"
#include "libmap/subject.hpp"

namespace chortle::core {
namespace {

void require_k_in_range(const IMapper& mapper, int k) {
  CHORTLE_REQUIRE(k >= mapper.min_k() && k <= mapper.max_k(),
                  "K outside the mapper's supported range");
}

class ChortleMapper final : public IMapper {
 public:
  const char* name() const override { return "chortle"; }
  int min_k() const override { return 2; }
  int max_k() const override { return 6; }
  MapResult map(const net::Network& network,
                const Options& options) const override {
    require_k_in_range(*this, options.k);
    return map_network(network, options);
  }
};

class LibMapMapper final : public IMapper {
 public:
  const char* name() const override { return "libmap"; }
  int min_k() const override { return 2; }
  int max_k() const override { return 6; }
  MapResult map(const net::Network& network,
                const Options& options) const override {
    require_k_in_range(*this, options.k);
    const libmap::BaselineResult result =
        libmap::map_with_library(network, libmap::library_for(options.k));
    MapResult out{result.circuit, MapStats{}};
    out.stats.num_luts = result.stats.num_luts;
    out.stats.num_trees = result.stats.num_trees;
    out.stats.depth = result.stats.depth;
    out.stats.seconds = result.stats.seconds;
    return out;
  }
};

class FlowMapMapper final : public IMapper {
 public:
  const char* name() const override { return "flowmap"; }
  int min_k() const override { return 2; }
  int max_k() const override { return cutmap::CutMapOptions::kMaxK; }
  MapResult map(const net::Network& network,
                const Options& options) const override {
    require_k_in_range(*this, options.k);
    const net::Network subject = libmap::build_subject_graph(network);
    const flowmap::FlowMapResult result =
        flowmap::flowmap(subject, options.k);
    MapResult out{result.circuit, MapStats{}};
    out.stats.num_luts = result.stats.num_luts;
    out.stats.depth = result.stats.depth;
    out.stats.seconds = result.stats.seconds;
    return out;
  }
};

class CutMapMapper final : public IMapper {
 public:
  const char* name() const override { return "cutmap"; }
  int min_k() const override { return 2; }
  int max_k() const override { return cutmap::CutMapOptions::kMaxK; }
  MapResult map(const net::Network& network,
                const Options& options) const override {
    require_k_in_range(*this, options.k);
    const net::Network subject = libmap::build_subject_graph(network);
    cutmap::CutMapOptions cut_options;
    cut_options.k = options.k;
    cut_options.cancel = options.cancel;
    const cutmap::CutMapResult result =
        cutmap::map_luts(subject, cut_options);
    MapResult out{result.circuit, MapStats{}};
    out.stats.num_luts = result.stats.num_luts;
    out.stats.depth = result.stats.depth;
    out.stats.seconds = result.stats.seconds;
    return out;
  }
};

std::vector<const IMapper*>& registry() {
  static const ChortleMapper chortle;
  static const LibMapMapper libmap;
  static const FlowMapMapper flowmap;
  static const CutMapMapper cutmap;
  static std::vector<const IMapper*> mappers{&chortle, &libmap,
                                             &flowmap, &cutmap};
  return mappers;
}

}  // namespace

const std::vector<const IMapper*>& all_mappers() { return registry(); }

void register_mapper(const IMapper* mapper) {
  CHORTLE_REQUIRE(mapper != nullptr, "register_mapper: null mapper");
  for (const IMapper* existing : registry())
    if (std::string(existing->name()) == mapper->name()) return;
  registry().push_back(mapper);
}

const IMapper* find_mapper(const std::string& name) {
  for (const IMapper* mapper : all_mappers())
    if (name == mapper->name()) return mapper;
  return nullptr;
}

std::string mapper_names() {
  std::string names;
  for (const IMapper* mapper : all_mappers()) {
    if (!names.empty()) names += '|';
    names += mapper->name();
  }
  return names;
}

}  // namespace chortle::core
