#include "workload.h"

namespace pierbench {

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "dht_get_steady", "pier_publish_search", "sec7_hybrid"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Params& params, Tracer* tracer) {
  if (name == "dht_get_steady") return MakeDhtGetSteady(params, tracer);
  if (name == "pier_publish_search") {
    return MakePierPublishSearch(params, tracer);
  }
  if (name == "sec7_hybrid") return MakeSec7Hybrid(params, tracer);
  return nullptr;
}

}  // namespace pierbench
