#include "net/remote_gp.h"

#include <utility>

#include "net/transport.h"

namespace rtr::net {

RemoteGraphProcessor::RemoteGraphProcessor(std::string host, uint16_t port,
                                           HelloPayload expected,
                                           RpcClientOptions options)
    : client_(std::move(host), port, expected, options) {}

Status RemoteGraphProcessor::Fetch(const std::vector<NodeId>& nodes,
                                   std::vector<dist::NodeRecord>* out) const {
  const size_t before = out->size();
  RTR_RETURN_IF_ERROR(client_.Fetch(nodes, out));
  fetch_requests_.Add(1);
  uint64_t record_bytes = 0;
  for (size_t i = before; i < out->size(); ++i) {
    record_bytes += (*out)[i].LedgerBytes();
  }
  records_served_.Add(out->size() - before);
  bytes_served_.Add(record_bytes);
  return Status::OK();
}

StatusOr<std::unique_ptr<dist::Cluster>> ConnectRemoteCluster(
    std::shared_ptr<const Graph> graph, uint64_t generation,
    const std::vector<std::string>& endpoints, RpcClientOptions options) {
  if (graph == nullptr) {
    return Status::InvalidArgument("remote cluster needs the AP graph");
  }
  if (endpoints.empty()) {
    return Status::InvalidArgument("remote cluster needs gp endpoints");
  }
  std::vector<std::unique_ptr<dist::RecordSource>> sources;
  sources.reserve(endpoints.size());
  for (size_t shard = 0; shard < endpoints.size(); ++shard) {
    std::string host;
    uint16_t port = 0;
    RTR_RETURN_IF_ERROR(ParseEndpoint(endpoints[shard], &host, &port));
    HelloPayload expected;
    expected.shard = static_cast<uint32_t>(shard);
    expected.num_gps = static_cast<uint32_t>(endpoints.size());
    expected.num_nodes = graph->num_nodes();
    expected.generation = generation;
    auto remote = std::make_unique<RemoteGraphProcessor>(
        std::move(host), port, expected, options);
    RTR_RETURN_IF_ERROR(remote->Connect());
    sources.push_back(std::move(remote));
  }
  return std::make_unique<dist::Cluster>(std::move(graph),
                                         std::move(sources), generation);
}

}  // namespace rtr::net
