#include "net/wire.h"

#include <cmath>
#include <cstring>

#include "util/string_util.h"

namespace vkg::net {

namespace {

util::Status Malformed(const std::string& what) {
  return util::Status::DataLoss("malformed payload: " + what);
}

bool FiniteOrFail(WireReader& reader, double v, const char* what) {
  if (std::isfinite(v)) return true;
  reader.Fail(util::StrFormat("non-finite %s", what));
  return false;
}

void PutQuery(WireWriter& w, const data::Query& query) {
  w.PutU32(query.anchor);
  w.PutU32(query.relation);
  w.PutU8(static_cast<uint8_t>(query.direction));
}

bool TakeQuery(WireReader& r, data::Query* query) {
  query->anchor = r.U32();
  query->relation = r.U32();
  const uint8_t direction = r.U8();
  if (!r.ok()) return false;
  if (direction > 1) {
    r.Fail("direction out of range");
    return false;
  }
  query->direction = static_cast<kg::Direction>(direction);
  return true;
}

void PutQuality(WireWriter& w, const query::ResultQuality& quality) {
  w.PutU8(quality.exact ? 1 : 0);
  w.PutU8(static_cast<uint8_t>(quality.stop_reason));
  w.PutF64(quality.certified_radius);
}

bool TakeQuality(WireReader& r, query::ResultQuality* quality) {
  const uint8_t exact = r.U8();
  const uint8_t reason = r.U8();
  const double radius = r.F64();
  if (!r.ok()) return false;
  if (exact > 1 || reason > static_cast<uint8_t>(
                                util::StopReason::kScratchBudget)) {
    r.Fail("quality fields out of range");
    return false;
  }
  if (!FiniteOrFail(r, radius, "certified_radius")) return false;
  quality->exact = exact != 0;
  quality->stop_reason = static_cast<util::StopReason>(reason);
  quality->certified_radius = radius;
  return true;
}

}  // namespace

void WireWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  PutBytes(s.data(), s.size());
}

void WireWriter::PutBytes(const void* data, size_t n) {
  out_.append(static_cast<const char*>(data), n);
}

bool WireReader::Take(void* out, size_t n, const char* what) {
  if (!status_.ok()) return false;
  if (data_.size() - pos_ < n) {
    status_ = Malformed(util::StrFormat("truncated %s", what));
    memset(out, 0, n);
    return false;
  }
  memcpy(out, data_.data() + pos_, n);
  pos_ += n;
  return true;
}

uint8_t WireReader::U8() {
  uint8_t v = 0;
  Take(&v, sizeof(v), "u8");
  return v;
}
uint16_t WireReader::U16() {
  uint16_t v = 0;
  Take(&v, sizeof(v), "u16");
  return v;
}
uint32_t WireReader::U32() {
  uint32_t v = 0;
  Take(&v, sizeof(v), "u32");
  return v;
}
uint64_t WireReader::U64() {
  uint64_t v = 0;
  Take(&v, sizeof(v), "u64");
  return v;
}
double WireReader::F64() {
  double v = 0.0;
  Take(&v, sizeof(v), "f64");
  return v;
}

std::string WireReader::String(size_t max_len) {
  const uint32_t len = U32();
  if (!status_.ok()) return {};
  if (len > max_len) {
    status_ = Malformed(util::StrFormat("string length %u > cap %zu",
                                        len, max_len));
    return {};
  }
  if (data_.size() - pos_ < len) {
    status_ = Malformed("string length beyond payload");
    return {};
  }
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

void WireReader::Fail(const std::string& what) {
  if (status_.ok()) status_ = Malformed(what);
}

std::string EncodeRequest(uint64_t request_id,
                          const query::ServerRequest& request) {
  WireWriter w;
  w.PutU64(request_id);
  w.PutString(request.client_id);
  w.PutU8(static_cast<uint8_t>(request.kind));
  PutQuery(w, request.query);
  w.PutU64(request.k);
  PutQuery(w, request.aggregate.query);
  w.PutU8(static_cast<uint8_t>(request.aggregate.kind));
  w.PutString(request.aggregate.attribute);
  w.PutF64(request.aggregate.prob_threshold);
  w.PutU64(request.aggregate.sample_size);
  w.PutF64(request.deadline_ms);
  w.PutU64(request.budget.max_points);
  w.PutU64(request.budget.max_cracked_nodes);
  w.PutU64(request.budget.max_scratch_bytes);
  w.PutU32(static_cast<uint32_t>(request.priority));
  w.PutU8(request.bypass_cache ? 1 : 0);
  return w.Take();
}

util::Status DecodeRequest(std::string_view payload, uint64_t* request_id,
                           query::ServerRequest* request) {
  WireReader r(payload);
  *request_id = r.U64();
  request->client_id = r.String(kMaxClientIdLen);
  const uint8_t kind = r.U8();
  if (r.ok() && kind > 1) r.Fail("request kind out of range");
  if (!TakeQuery(r, &request->query)) return r.status();
  request->k = r.U64();
  if (!TakeQuery(r, &request->aggregate.query)) return r.status();
  const uint8_t agg_kind = r.U8();
  if (r.ok() &&
      agg_kind > static_cast<uint8_t>(query::AggKind::kMin)) {
    r.Fail("aggregate kind out of range");
  }
  request->aggregate.attribute = r.String(kMaxAttributeLen);
  request->aggregate.prob_threshold = r.F64();
  request->aggregate.sample_size = r.U64();
  request->deadline_ms = r.F64();
  request->budget.max_points = r.U64();
  request->budget.max_cracked_nodes = r.U64();
  request->budget.max_scratch_bytes = r.U64();
  request->priority = static_cast<int32_t>(r.U32());
  const uint8_t bypass = r.U8();
  if (!r.ok()) return r.status();
  if (bypass > 1) return Malformed("bypass_cache out of range");
  if (!std::isfinite(request->aggregate.prob_threshold) ||
      !std::isfinite(request->deadline_ms)) {
    return Malformed("non-finite request field");
  }
  if (!r.AtEnd()) return Malformed("trailing bytes after request");
  request->kind = static_cast<query::RequestKind>(kind);
  request->aggregate.kind = static_cast<query::AggKind>(agg_kind);
  request->bypass_cache = bypass != 0;
  return util::Status::OK();
}

namespace {

constexpr uint8_t kMetaCacheHit = 1u << 0;
constexpr uint8_t kMetaCoalesced = 1u << 1;
constexpr uint8_t kMetaExpiredInQueue = 1u << 2;
constexpr uint8_t kMetaDegradedByPressure = 1u << 3;

}  // namespace

std::string EncodeResponse(uint64_t request_id,
                           const query::ServerResponse& response,
                           query::RequestKind kind) {
  WireWriter w;
  w.PutU64(request_id);
  w.PutU8(static_cast<uint8_t>(response.status.code()));
  w.PutString(response.status.message().size() > kMaxStatusMessageLen
                  ? response.status.message().substr(0, kMaxStatusMessageLen)
                  : response.status.message());
  w.PutU8(static_cast<uint8_t>(kind));
  w.PutU32(static_cast<uint32_t>(response.meta.shard));
  uint8_t flags = 0;
  if (response.meta.cache_hit) flags |= kMetaCacheHit;
  if (response.meta.coalesced) flags |= kMetaCoalesced;
  if (response.meta.expired_in_queue) flags |= kMetaExpiredInQueue;
  if (response.meta.degraded_by_pressure) flags |= kMetaDegradedByPressure;
  w.PutU8(flags);
  w.PutU64(response.meta.data_version);
  w.PutF64(response.meta.retry_after_ms);
  if (!response.ok()) return w.Take();
  if (kind == query::RequestKind::kTopK) {
    w.PutU32(static_cast<uint32_t>(response.topk.hits.size()));
    for (const query::TopKHit& hit : response.topk.hits) {
      w.PutU32(hit.entity);
      w.PutF64(hit.distance);
      w.PutF64(hit.probability);
    }
    w.PutU64(response.topk.candidates_examined);
    PutQuality(w, response.topk.quality);
  } else {
    w.PutF64(response.aggregate.value);
    w.PutU64(response.aggregate.accessed);
    w.PutF64(response.aggregate.estimated_total);
    w.PutF64(response.aggregate.prob_mass_accessed);
    w.PutF64(response.aggregate.prob_mass_estimated);
    PutQuality(w, response.aggregate.quality);
  }
  return w.Take();
}

util::Status DecodeResponse(std::string_view payload, uint64_t* request_id,
                            query::ServerResponse* response) {
  WireReader r(payload);
  *request_id = r.U64();
  const uint8_t code = r.U8();
  std::string message = r.String(kMaxStatusMessageLen);
  const uint8_t kind = r.U8();
  const uint32_t shard = r.U32();
  const uint8_t flags = r.U8();
  const uint64_t data_version = r.U64();
  const double retry_after_ms = r.F64();
  if (!r.ok()) return r.status();
  if (code > static_cast<uint8_t>(util::StatusCode::kUnavailable)) {
    return Malformed("status code out of range");
  }
  if (kind > 1) return Malformed("response kind out of range");
  if (flags > (kMetaCacheHit | kMetaCoalesced | kMetaExpiredInQueue |
               kMetaDegradedByPressure)) {
    return Malformed("meta flags out of range");
  }
  if (!std::isfinite(retry_after_ms)) {
    return Malformed("non-finite retry_after_ms");
  }
  response->status = util::Status(static_cast<util::StatusCode>(code),
                                  std::move(message));
  response->meta.shard = shard;
  response->meta.cache_hit = (flags & kMetaCacheHit) != 0;
  response->meta.coalesced = (flags & kMetaCoalesced) != 0;
  response->meta.expired_in_queue = (flags & kMetaExpiredInQueue) != 0;
  response->meta.degraded_by_pressure =
      (flags & kMetaDegradedByPressure) != 0;
  response->meta.data_version = data_version;
  response->meta.retry_after_ms = retry_after_ms;
  if (!response->ok()) {
    if (!r.AtEnd()) return Malformed("trailing bytes after error response");
    return util::Status::OK();
  }
  if (kind == static_cast<uint8_t>(query::RequestKind::kTopK)) {
    const uint32_t hits = r.U32();
    if (!r.ok()) return r.status();
    // 20 bytes per hit on the wire: a lying count field is caught here,
    // before any allocation sized by it.
    if (hits > kMaxWireHits || hits > r.remaining() / 20) {
      return Malformed("hit count beyond payload");
    }
    response->topk.hits.resize(hits);
    for (query::TopKHit& hit : response->topk.hits) {
      hit.entity = r.U32();
      hit.distance = r.F64();
      hit.probability = r.F64();
      if (!r.ok()) return r.status();
      if (!std::isfinite(hit.distance) || !std::isfinite(hit.probability)) {
        return Malformed("non-finite hit field");
      }
    }
    response->topk.candidates_examined = r.U64();
    if (!TakeQuality(r, &response->topk.quality)) return r.status();
  } else {
    response->aggregate.value = r.F64();
    response->aggregate.accessed = r.U64();
    response->aggregate.estimated_total = r.F64();
    response->aggregate.prob_mass_accessed = r.F64();
    response->aggregate.prob_mass_estimated = r.F64();
    if (!r.ok()) return r.status();
    if (!std::isfinite(response->aggregate.value)) {
      return Malformed("non-finite aggregate value");
    }
    if (!TakeQuality(r, &response->aggregate.quality)) return r.status();
  }
  if (!r.AtEnd()) return Malformed("trailing bytes after response");
  return util::Status::OK();
}

std::string EncodeWireError(const WireError& error) {
  WireWriter w;
  w.PutU32(static_cast<uint32_t>(error.code));
  w.PutF64(error.retry_after_ms);
  w.PutString(error.message.size() > kMaxStatusMessageLen
                  ? error.message.substr(0, kMaxStatusMessageLen)
                  : error.message);
  return w.Take();
}

util::Status DecodeWireError(std::string_view payload, WireError* error) {
  WireReader r(payload);
  const uint32_t code = r.U32();
  const double retry_after_ms = r.F64();
  std::string message = r.String(kMaxStatusMessageLen);
  if (!r.ok()) return r.status();
  if (code < static_cast<uint32_t>(WireErrorCode::kMalformed) ||
      code > static_cast<uint32_t>(WireErrorCode::kInternal)) {
    return Malformed("wire error code out of range");
  }
  if (!std::isfinite(retry_after_ms)) {
    return Malformed("non-finite retry_after_ms");
  }
  if (!r.AtEnd()) return Malformed("trailing bytes after wire error");
  error->code = static_cast<WireErrorCode>(code);
  error->retry_after_ms = retry_after_ms;
  error->message = std::move(message);
  return util::Status::OK();
}

}  // namespace vkg::net
