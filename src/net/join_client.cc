#include "net/join_client.h"

#include <utility>

namespace actjoin::net {

bool JoinClient::Call(const std::vector<uint8_t>& frame, uint64_t request_id,
                      MessageType expect, std::vector<uint8_t>* payload,
                      Reply* reply) {
  AsyncJoinClient::RawReply raw = core_->Call(frame, request_id, expect).get();
  reply->ok = raw.ok;
  reply->error = raw.error;
  reply->message = std::move(raw.message);
  if (!raw.ok) return false;
  *payload = std::move(raw.payload);
  return true;
}

JoinClient::Reply JoinClient::Join(const service::QueryBatch& batch) {
  Reply reply;
  const uint64_t id = core_->NextRequestId();
  std::vector<uint8_t> frame = EncodeJoinBatchFrame(id, batch);
  if (frame.size() > max_frame_bytes()) {
    reply.message = "batch exceeds max_frame_bytes";
    return reply;
  }
  std::vector<uint8_t> payload;
  if (!Call(frame, id, MessageType::kJoinResult, &payload, &reply)) {
    return reply;
  }
  if (!DecodeJoinResult(payload, &reply.result)) {
    Close();
    reply.ok = false;
    reply.message = "undecodable join result";
  }
  return reply;
}

JoinClient::CrossMatchReply JoinClient::CrossMatch(
    uint16_t dataset_a, const JoinDatasetsRequest& req) {
  if (!connected()) {
    CrossMatchReply reply;
    reply.message = "not connected";
    return reply;
  }
  const uint64_t id = core_->NextRequestId();
  return core_->CallCrossMatch(EncodeJoinDatasetsFrame(id, dataset_a, req), id)
      .get();
}

JoinClient::Reply JoinClient::AddPolygons(
    uint16_t dataset_id, const std::vector<geom::Polygon>& polygons) {
  Reply reply;
  const uint64_t id = core_->NextRequestId();
  std::vector<uint8_t> frame =
      EncodeAddPolygonsFrame(id, dataset_id, polygons);
  if (frame.size() > max_frame_bytes()) {
    reply.message = "polygon batch exceeds max_frame_bytes";
    return reply;
  }
  std::vector<uint8_t> payload;
  if (!Call(frame, id, MessageType::kMutateResult, &payload, &reply)) {
    return reply;
  }
  if (!DecodeMutationAck(payload, &reply.ack)) {
    Close();
    reply.ok = false;
    reply.message = "undecodable mutation ack";
  }
  return reply;
}

JoinClient::Reply JoinClient::RemovePolygons(
    uint16_t dataset_id, const std::vector<uint32_t>& polygon_ids) {
  Reply reply;
  const uint64_t id = core_->NextRequestId();
  std::vector<uint8_t> payload;
  if (!Call(EncodeRemovePolygonsFrame(id, dataset_id, polygon_ids), id,
            MessageType::kMutateResult, &payload, &reply)) {
    return reply;
  }
  if (!DecodeMutationAck(payload, &reply.ack)) {
    Close();
    reply.ok = false;
    reply.message = "undecodable mutation ack";
  }
  return reply;
}

JoinClient::Reply JoinClient::DropDataset(uint16_t dataset_id) {
  Reply reply;
  const uint64_t id = core_->NextRequestId();
  std::vector<uint8_t> payload;
  if (!Call(EncodeDropDatasetFrame(id, dataset_id), id,
            MessageType::kMutateResult, &payload, &reply)) {
    return reply;
  }
  if (!DecodeMutationAck(payload, &reply.ack)) {
    Close();
    reply.ok = false;
    reply.message = "undecodable mutation ack";
  }
  return reply;
}

bool JoinClient::Ping(std::string* error) {
  Reply reply;
  const uint64_t id = core_->NextRequestId();
  std::vector<uint8_t> payload;
  bool ok = Call(EncodeEmptyFrame(MessageType::kPing, id), id,
                 MessageType::kPong, &payload, &reply);
  if (!ok && error != nullptr) *error = reply.message;
  return ok;
}

bool JoinClient::GetStats(service::ServiceStats* out, std::string* error) {
  MetricsReport report;
  if (!GetMetrics(&report, error)) return false;
  *out = service::StatsFromSamples(report.samples);
  return true;
}

bool JoinClient::GetMetrics(MetricsReport* out, std::string* error) {
  Reply reply;
  const uint64_t id = core_->NextRequestId();
  std::vector<uint8_t> payload;
  if (!Call(EncodeGetMetricsFrame(id, MetricsFormat::kBinary), id,
            MessageType::kMetricsResult, &payload, &reply)) {
    if (error != nullptr) *error = reply.message;
    return false;
  }
  MetricsFormat format = MetricsFormat::kBinary;
  std::string text;
  if (!DecodeMetricsResult(payload, &format, &text, out) ||
      format != MetricsFormat::kBinary) {
    Close();
    if (error != nullptr) *error = "undecodable metrics response";
    return false;
  }
  return true;
}

bool JoinClient::GetMetricsText(std::string* out, std::string* error) {
  Reply reply;
  const uint64_t id = core_->NextRequestId();
  std::vector<uint8_t> payload;
  if (!Call(EncodeGetMetricsFrame(id, MetricsFormat::kText), id,
            MessageType::kMetricsResult, &payload, &reply)) {
    if (error != nullptr) *error = reply.message;
    return false;
  }
  MetricsFormat format = MetricsFormat::kText;
  MetricsReport report;
  if (!DecodeMetricsResult(payload, &format, out, &report) ||
      format != MetricsFormat::kText) {
    Close();
    if (error != nullptr) *error = "undecodable metrics response";
    return false;
  }
  return true;
}

bool JoinClient::ListDatasets(std::vector<service::DatasetInfo>* out,
                              std::string* error) {
  Reply reply;
  const uint64_t id = core_->NextRequestId();
  std::vector<uint8_t> payload;
  if (!Call(EncodeEmptyFrame(MessageType::kListDatasets, id), id,
            MessageType::kDatasetList, &payload, &reply)) {
    if (error != nullptr) *error = reply.message;
    return false;
  }
  if (!DecodeDatasetList(payload, out)) {
    Close();
    if (error != nullptr) *error = "undecodable dataset list response";
    return false;
  }
  return true;
}

bool JoinClient::RequestShutdown(std::string* error) {
  Reply reply;
  const uint64_t id = core_->NextRequestId();
  std::vector<uint8_t> payload;
  bool ok = Call(EncodeEmptyFrame(MessageType::kShutdown, id), id,
                 MessageType::kShutdownAck, &payload, &reply);
  if (!ok && error != nullptr) *error = reply.message;
  return ok;
}

}  // namespace actjoin::net
