// The whole video server: a shared-nothing collection of nodes on one
// interconnection network (paper Fig 1).

#ifndef SPIFFI_SERVER_SERVER_H_
#define SPIFFI_SERVER_SERVER_H_

#include <memory>
#include <vector>

#include "server/node.h"

namespace spiffi::server {

// Minimal view of a server that clients need: where to send a request
// destined for a given node. Lets tests drive terminals against fakes.
class NodeDirectory {
 public:
  virtual ~NodeDirectory() = default;
  virtual MessageSink* node_sink(int id) = 0;
};

class VideoServer final : public NodeDirectory {
 public:
  // `node_config` is cloned per node with the id filled in. The buffer
  // pool pages in node_config are per node. `fault`, when given, arms
  // the degraded-read path on every node (the server itself acts as the
  // peer directory for re-routed requests).
  VideoServer(sim::Environment* env, int num_nodes,
              const NodeConfig& node_config, hw::Network* network,
              const mpeg::VideoLibrary* library,
              const layout::Layout* layout,
              const fault::FaultState* fault = nullptr);

  VideoServer(const VideoServer&) = delete;
  VideoServer& operator=(const VideoServer&) = delete;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  Node& node(int id) { return *nodes_[id]; }
  const Node& node(int id) const { return *nodes_[id]; }
  MessageSink* node_sink(int id) override { return nodes_[id].get(); }

  void ResetStats(sim::SimTime now);

 private:
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace spiffi::server

#endif  // SPIFFI_SERVER_SERVER_H_
