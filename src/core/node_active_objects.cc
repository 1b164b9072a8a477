#include "core/node_active_objects.h"

#include <memory>
#include <utility>

#include "net/cost_model.h"

namespace bestpeer::core {

ActiveObjects::ActiveObjects(NodeIo& io) : io_(io) {
  io_.Handle(kActiveObjReqType, "activeobj.request", this,
             &ActiveObjects::OnRequest);
  io_.Handle(kActiveObjRespType, "activeobj.response", this,
             &ActiveObjects::OnResponse);
}

void ActiveObjects::ShareActiveObject(const std::string& name,
                                      ActiveObject object) {
  objects_[name] = std::move(object);
}

void ActiveObjects::RequestActiveObject(NodeId provider,
                                        const std::string& name,
                                        AccessLevel level,
                                        ContentCallback callback) {
  uint64_t id = ++request_counter_;
  pending_[id] = std::move(callback);
  ActiveObjectRequest req;
  req.request_id = id;
  req.object_name = name;
  req.access_level = static_cast<uint8_t>(level);
  io_.Send(provider, kActiveObjReqType, req);
}

void ActiveObjects::OnRequest(NodeId src, ActiveObjectRequest& req) {
  auto response = std::make_shared<ActiveObjectResponse>();
  response->request_id = req.request_id;
  auto it = objects_.find(req.object_name);
  if (it != objects_.end()) {
    auto rendered = it->second.Render(
        static_cast<AccessLevel>(req.access_level), active_nodes_);
    if (rendered.ok()) {
      response->ok = true;
      response->content = std::move(rendered).value();
    }
  }
  io_.transport().RunCpu(net::kResultHandlingCost, [this, src, response]() {
    io_.Send(src, kActiveObjRespType, *response);
  });
}

void ActiveObjects::OnResponse(NodeId, ActiveObjectResponse& resp) {
  auto it = pending_.find(resp.request_id);
  if (it == pending_.end()) return;
  ContentCallback callback = std::move(it->second);
  pending_.erase(it);
  if (!callback) return;
  if (resp.ok) {
    callback(std::move(resp.content));
  } else {
    callback(Status::NotFound("active object unavailable"));
  }
}

}  // namespace bestpeer::core
