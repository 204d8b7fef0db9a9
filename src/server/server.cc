#include "server/server.h"

#include "sim/check.h"

namespace spiffi::server {

VideoServer::VideoServer(sim::Environment* env, int num_nodes,
                         const NodeConfig& node_config,
                         hw::Network* network,
                         const mpeg::VideoLibrary* library,
                         const layout::Layout* layout,
                         const fault::FaultState* fault) {
  SPIFFI_CHECK(num_nodes > 0);
  nodes_.reserve(static_cast<std::size_t>(num_nodes));
  for (int id = 0; id < num_nodes; ++id) {
    NodeConfig config = node_config;
    config.id = id;
    nodes_.push_back(std::make_unique<Node>(env, config, network, library,
                                            layout, this, fault));
  }
}

void VideoServer::ResetStats(sim::SimTime now) {
  for (auto& node : nodes_) node->ResetStats(now);
}

}  // namespace spiffi::server
