#include "serve/protocol.h"

#include <algorithm>
#include <cstring>

#include "core/bitstream.h"  // core::crc32

namespace pp::serve {

namespace {

// ---- little-endian payload writer -----------------------------------------

struct Writer {
  std::vector<std::uint8_t> bytes;

  void u8(std::uint8_t v) { bytes.push_back(v); }
  void u16(std::uint16_t v) {
    for (int i = 0; i < 2; ++i)
      bytes.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      bytes.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      bytes.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
  void str(std::string_view s) {
    // u16 length prefix; encoders truncate instead of emitting an invalid
    // length (only human-readable messages ever approach the bound).
    const std::size_t n = std::min<std::size_t>(s.size(), 0xFFFF);
    u16(static_cast<std::uint16_t>(n));
    bytes.insert(bytes.end(), s.begin(), s.begin() + n);
  }
  void blob32(std::span<const std::uint8_t> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    bytes.insert(bytes.end(), b.begin(), b.end());
  }
};

// ---- bounds-checked little-endian payload reader --------------------------

struct Reader {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;
  Status status{};  // first failure; all reads after a failure return zeros

  [[nodiscard]] bool fail(std::string what) {
    if (status.ok())
      status = Status::out_of_range("serve payload: truncated reading " +
                                    std::move(what));
    return false;
  }
  [[nodiscard]] bool need(std::size_t n, const char* what) {
    if (!status.ok()) return false;
    if (bytes.size() - pos < n) return fail(what);
    return true;
  }
  std::uint8_t u8(const char* what) {
    if (!need(1, what)) return 0;
    return bytes[pos++];
  }
  std::uint16_t u16(const char* what) {
    if (!need(2, what)) return 0;
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i)
      v |= static_cast<std::uint16_t>(bytes[pos++]) << (8 * i);
    return v;
  }
  std::uint32_t u32(const char* what) {
    if (!need(4, what)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(bytes[pos++]) << (8 * i);
    return v;
  }
  std::uint64_t u64(const char* what) {
    if (!need(8, what)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(bytes[pos++]) << (8 * i);
    return v;
  }
  std::string str(const char* what) {
    const std::uint16_t n = u16(what);
    if (!need(n, what)) return {};
    std::string s(reinterpret_cast<const char*>(bytes.data() + pos), n);
    pos += n;
    return s;
  }
  std::vector<std::uint8_t> blob32(const char* what) {
    const std::uint32_t n = u32(what);
    if (!need(n, what)) return {};
    std::vector<std::uint8_t> b(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                                bytes.begin() +
                                    static_cast<std::ptrdiff_t>(pos + n));
    pos += n;
    return b;
  }
  /// Decode epilogue: the payload must be consumed exactly — trailing
  /// garbage is as malformed as a truncation.
  [[nodiscard]] Status finish(const char* msg_name) {
    if (!status.ok()) return status;
    if (pos != bytes.size())
      return Status::invalid_argument(std::string("serve payload: ") +
                                      msg_name + " carries " +
                                      std::to_string(bytes.size() - pos) +
                                      " trailing bytes");
    return Status();
  }
};

void put_u32(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
}

[[nodiscard]] Status expect_type(const Frame& frame, MsgType type,
                                 const char* msg_name) {
  if (frame.type != type)
    return Status::invalid_argument(
        std::string("serve: frame is not a ") + msg_name + " (type " +
        std::to_string(static_cast<int>(frame.type)) + ")");
  return Status();
}

/// SoA plane-size validation shared by kSubmitBatch and kResult: exact
/// byte count and canonical (zero) padding, without materializing vectors.
[[nodiscard]] Status validate_planes(const std::vector<std::uint8_t>& planes,
                                     std::uint32_t count, std::uint16_t width,
                                     const char* msg_name) {
  const std::size_t plane_bytes = (static_cast<std::size_t>(count) + 7) / 8;
  if (planes.size() != static_cast<std::size_t>(width) * plane_bytes)
    return Status::out_of_range(
        std::string("serve: ") + msg_name + " announces " +
        std::to_string(count) + " vectors x " + std::to_string(width) +
        " bits but carries " + std::to_string(planes.size()) +
        " plane bytes");
  if (count % 8 != 0)
    for (std::size_t i = 0; i < width; ++i) {
      const std::uint8_t last = planes[i * plane_bytes + plane_bytes - 1];
      if ((last & static_cast<std::uint8_t>(~((1u << (count % 8)) - 1))) != 0)
        return Status::invalid_argument(std::string("serve: ") + msg_name +
                                        " has non-zero pad bits in plane " +
                                        std::to_string(i));
    }
  return Status();
}

void write_bindings(Writer& w,
                    const std::vector<platform::PortBinding>& bindings) {
  w.u16(static_cast<std::uint16_t>(bindings.size()));
  for (const platform::PortBinding& b : bindings) {
    w.str(b.name);
    w.u32(static_cast<std::uint32_t>(b.at.r));
    w.u32(static_cast<std::uint32_t>(b.at.c));
    w.u32(static_cast<std::uint32_t>(b.at.line));
  }
}

void write_signal_at(Writer& w, const map::SignalAt& at) {
  w.u32(static_cast<std::uint32_t>(at.r));
  w.u32(static_cast<std::uint32_t>(at.c));
  w.u32(static_cast<std::uint32_t>(at.line));
}

void write_state_bindings(Writer& w,
                          const std::vector<platform::StateBinding>& state) {
  w.u16(static_cast<std::uint16_t>(state.size()));
  for (const platform::StateBinding& b : state) {
    w.str(b.name);
    write_signal_at(w, b.q_pad);
    write_signal_at(w, b.d_at);
  }
}

[[nodiscard]] bool read_signal_at(Reader& r, const char* what,
                                  map::SignalAt& out) {
  const std::uint32_t rr = r.u32(what), cc = r.u32(what), line = r.u32(what);
  if (!r.status.ok()) return false;
  if (rr > 0x7FFFFFFF || cc > 0x7FFFFFFF || line > 0x7FFFFFFF) {
    r.status = Status::invalid_argument(
        std::string("serve: ") + what + " binding coordinate out of range");
    return false;
  }
  out = {static_cast<int>(rr), static_cast<int>(cc), static_cast<int>(line)};
  return true;
}

[[nodiscard]] std::vector<platform::StateBinding> read_state_bindings(
    Reader& r, const char* what) {
  std::vector<platform::StateBinding> out;
  const std::uint16_t n = r.u16(what);
  for (std::uint16_t i = 0; i < n && r.status.ok(); ++i) {
    platform::StateBinding b;
    b.name = r.str(what);
    if (!read_signal_at(r, what, b.q_pad)) break;
    if (!read_signal_at(r, what, b.d_at)) break;
    out.push_back(std::move(b));
  }
  return out;
}

[[nodiscard]] std::vector<platform::PortBinding> read_bindings(
    Reader& r, const char* what) {
  // Coordinates are bounded well below 2^31 by any real fabric; reject
  // values that would go negative through the int cast so a hostile frame
  // can never smuggle a negative index past the resolver.
  std::vector<platform::PortBinding> out;
  const std::uint16_t n = r.u16(what);
  for (std::uint16_t i = 0; i < n && r.status.ok(); ++i) {
    platform::PortBinding b;
    b.name = r.str(what);
    const std::uint32_t rr = r.u32(what), cc = r.u32(what),
                        line = r.u32(what);
    if (!r.status.ok()) break;
    if (rr > 0x7FFFFFFF || cc > 0x7FFFFFFF || line > 0x7FFFFFFF) {
      r.status = Status::invalid_argument(
          std::string("serve: ") + what + " binding coordinate out of range");
      break;
    }
    b.at = {static_cast<int>(rr), static_cast<int>(cc),
            static_cast<int>(line)};
    out.push_back(std::move(b));
  }
  return out;
}

}  // namespace

// ---- frame codec -----------------------------------------------------------

std::vector<std::uint8_t> encode_frame(MsgType type,
                                       std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> bytes(kHeaderBytes + payload.size() +
                                  kTrailerBytes);
  for (std::size_t i = 0; i < sizeof(kMagic); ++i)
    bytes[i] = static_cast<std::uint8_t>(kMagic[i]);
  bytes[4] = kProtocolVersion;
  bytes[5] = static_cast<std::uint8_t>(type);
  put_u32(bytes, 6, static_cast<std::uint32_t>(payload.size()));
  std::copy(payload.begin(), payload.end(), bytes.begin() + kHeaderBytes);
  const std::size_t body = kHeaderBytes + payload.size();
  put_u32(bytes, body, core::crc32(std::span(bytes).first(body)));
  return bytes;
}

Result<FrameHeader> decode_header(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != kHeaderBytes)
    return Status::out_of_range("serve: frame header is " +
                                std::to_string(kHeaderBytes) +
                                " bytes, got " + std::to_string(bytes.size()));
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
    return Status::invalid_argument("serve: bad frame magic (want \"PPSV\")");
  if (bytes[4] != kProtocolVersion)
    return Status::invalid_argument(
        "serve: unsupported protocol version " + std::to_string(bytes[4]) +
        " (this peer speaks " + std::to_string(kProtocolVersion) + ")");
  const std::uint8_t type = bytes[5];
  if (type < static_cast<std::uint8_t>(MsgType::kHello) ||
      type > static_cast<std::uint8_t>(MsgType::kStatsReply))
    return Status::invalid_argument("serve: unknown message type " +
                                    std::to_string(type));
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i)
    len |= static_cast<std::uint32_t>(bytes[6 + i]) << (8 * i);
  if (len > kMaxPayloadBytes)
    return Status::out_of_range("serve: payload length " +
                                std::to_string(len) + " exceeds the " +
                                std::to_string(kMaxPayloadBytes) +
                                "-byte cap");
  FrameHeader header;
  header.type = static_cast<MsgType>(type);
  header.payload_len = len;
  return header;
}

Result<Frame> decode_frame(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes + kTrailerBytes)
    return Status::out_of_range(
        "serve: frame of " + std::to_string(bytes.size()) +
        " bytes is shorter than header + CRC");
  auto header = decode_header(bytes.first(kHeaderBytes));
  if (!header.ok()) return header.status();
  const std::size_t want =
      kHeaderBytes + header->payload_len + kTrailerBytes;
  if (bytes.size() != want)
    return Status::out_of_range(
        "serve: frame is " + std::to_string(bytes.size()) +
        " bytes but the header announces " + std::to_string(want));
  const auto body = bytes.first(bytes.size() - kTrailerBytes);
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i)
    crc |= static_cast<std::uint32_t>(bytes[body.size() + i]) << (8 * i);
  if (core::crc32(body) != crc)
    return Status::data_loss("serve: frame CRC mismatch");
  Frame frame;
  frame.type = header->type;
  frame.payload.assign(body.begin() + kHeaderBytes, body.end());
  return frame;
}

Status validate_name(std::string_view what, std::string_view name) {
  if (name.empty())
    return Status::invalid_argument("serve: " + std::string(what) +
                                    " must not be empty");
  if (name.size() > kMaxNameBytes)
    return Status::invalid_argument(
        "serve: " + std::string(what) + " exceeds " +
        std::to_string(kMaxNameBytes) + " bytes");
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok)
      return Status::invalid_argument(
          "serve: " + std::string(what) +
          " may only contain [A-Za-z0-9_.-] (got '" + std::string(name) +
          "')");
  }
  return Status();
}

std::uint8_t status_code_to_wire(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk: return 0;
    case StatusCode::kInvalidArgument: return 1;
    case StatusCode::kFailedPrecondition: return 2;
    case StatusCode::kOutOfRange: return 3;
    case StatusCode::kNotFound: return 4;
    case StatusCode::kResourceExhausted: return 5;
    case StatusCode::kDataLoss: return 6;
    case StatusCode::kUnimplemented: return 7;
    case StatusCode::kDeadlineExceeded: return 8;
    case StatusCode::kUnavailable: return 9;
    case StatusCode::kInternal: return 10;
  }
  return 10;  // anything unmapped degrades to kInternal
}

Result<StatusCode> status_code_from_wire(std::uint8_t wire) {
  switch (wire) {
    case 0: return StatusCode::kOk;
    case 1: return StatusCode::kInvalidArgument;
    case 2: return StatusCode::kFailedPrecondition;
    case 3: return StatusCode::kOutOfRange;
    case 4: return StatusCode::kNotFound;
    case 5: return StatusCode::kResourceExhausted;
    case 6: return StatusCode::kDataLoss;
    case 7: return StatusCode::kUnimplemented;
    case 8: return StatusCode::kDeadlineExceeded;
    case 9: return StatusCode::kUnavailable;
    case 10: return StatusCode::kInternal;
    default:
      return Status::invalid_argument("serve: unknown wire status code " +
                                      std::to_string(wire));
  }
}

// ---- hello -----------------------------------------------------------------

std::vector<std::uint8_t> encode_hello(const HelloMsg& msg) {
  Writer w;
  w.str(msg.tenant);
  return encode_frame(MsgType::kHello, w.bytes);
}

Result<HelloMsg> decode_hello(const Frame& frame) {
  if (Status s = expect_type(frame, MsgType::kHello, "hello"); !s.ok())
    return s;
  Reader r{frame.payload};
  HelloMsg msg;
  msg.tenant = r.str("tenant");
  if (Status s = r.finish("hello"); !s.ok()) return s;
  if (Status s = validate_name("tenant name", msg.tenant); !s.ok()) return s;
  return msg;
}

// ---- hello ack -------------------------------------------------------------

std::vector<std::uint8_t> encode_hello_ack(const HelloAckMsg& msg) {
  Writer w;
  w.u64(msg.session_id);
  return encode_frame(MsgType::kHelloAck, w.bytes);
}

Result<HelloAckMsg> decode_hello_ack(const Frame& frame) {
  if (Status s = expect_type(frame, MsgType::kHelloAck, "hello_ack"); !s.ok())
    return s;
  Reader r{frame.payload};
  HelloAckMsg msg;
  msg.session_id = r.u64("session_id");
  if (Status s = r.finish("hello_ack"); !s.ok()) return s;
  return msg;
}

// ---- register design -------------------------------------------------------

std::vector<std::uint8_t> encode_register_design(
    const RegisterDesignMsg& msg) {
  Writer w;
  w.u64(msg.request_id);
  w.str(msg.design);
  w.u16(msg.rows);
  w.u16(msg.cols);
  w.u64(msg.delays.nand_ps);
  w.u64(msg.delays.driver_ps);
  w.u64(msg.delays.pass_ps);
  w.u64(msg.delays.lfb_ps);
  w.u64(msg.content_hash);
  write_bindings(w, msg.inputs);
  write_bindings(w, msg.outputs);
  write_state_bindings(w, msg.state);
  w.blob32(msg.bitstream);
  return encode_frame(MsgType::kRegisterDesign, w.bytes);
}

Result<RegisterDesignMsg> decode_register_design(const Frame& frame) {
  if (Status s =
          expect_type(frame, MsgType::kRegisterDesign, "register_design");
      !s.ok())
    return s;
  Reader r{frame.payload};
  RegisterDesignMsg msg;
  msg.request_id = r.u64("request_id");
  msg.design = r.str("design name");
  msg.rows = r.u16("rows");
  msg.cols = r.u16("cols");
  msg.delays.nand_ps = r.u64("nand_ps");
  msg.delays.driver_ps = r.u64("driver_ps");
  msg.delays.pass_ps = r.u64("pass_ps");
  msg.delays.lfb_ps = r.u64("lfb_ps");
  msg.content_hash = r.u64("content_hash");
  msg.inputs = read_bindings(r, "inputs");
  msg.outputs = read_bindings(r, "outputs");
  msg.state = read_state_bindings(r, "state");
  msg.bitstream = r.blob32("bitstream");
  if (Status s = r.finish("register_design"); !s.ok()) return s;
  if (Status s = validate_name("design name", msg.design); !s.ok()) return s;
  if (msg.rows == 0 || msg.cols == 0)
    return Status::invalid_argument(
        "serve: register_design carries a zero fabric dimension");
  for (const auto* bindings : {&msg.inputs, &msg.outputs})
    for (const platform::PortBinding& b : *bindings)
      if (Status s = validate_name("port name", b.name); !s.ok()) return s;
  for (const platform::StateBinding& b : msg.state)
    if (Status s = validate_name("state name", b.name); !s.ok()) return s;
  return msg;
}

// ---- register ack ----------------------------------------------------------

std::vector<std::uint8_t> encode_register_ack(const RegisterAckMsg& msg) {
  Writer w;
  w.u64(msg.request_id);
  return encode_frame(MsgType::kRegisterAck, w.bytes);
}

Result<RegisterAckMsg> decode_register_ack(const Frame& frame) {
  if (Status s = expect_type(frame, MsgType::kRegisterAck, "register_ack");
      !s.ok())
    return s;
  Reader r{frame.payload};
  RegisterAckMsg msg;
  msg.request_id = r.u64("request_id");
  if (Status s = r.finish("register_ack"); !s.ok()) return s;
  return msg;
}

// ---- submit batch ----------------------------------------------------------

std::vector<std::uint8_t> encode_submit_batch(const SubmitBatchMsg& msg) {
  Writer w;
  w.u64(msg.request_id);
  w.str(msg.design);
  w.u8(static_cast<std::uint8_t>(msg.priority));
  w.u32(msg.deadline_ms);
  w.u8(static_cast<std::uint8_t>(msg.engine));
  w.u32(msg.cycles);
  w.u32(msg.vector_count);
  w.u16(msg.input_count);
  w.blob32(msg.planes);
  return encode_frame(MsgType::kSubmitBatch, w.bytes);
}

Result<SubmitBatchMsg> decode_submit_batch(const Frame& frame) {
  if (Status s = expect_type(frame, MsgType::kSubmitBatch, "submit_batch");
      !s.ok())
    return s;
  Reader r{frame.payload};
  SubmitBatchMsg msg;
  msg.request_id = r.u64("request_id");
  msg.design = r.str("design name");
  const std::uint8_t priority = r.u8("priority");
  msg.deadline_ms = r.u32("deadline_ms");
  const std::uint8_t engine = r.u8("engine");
  msg.cycles = r.u32("cycles");
  msg.vector_count = r.u32("vector_count");
  msg.input_count = r.u16("input_count");
  msg.planes = r.blob32("stimulus planes");
  if (Status s = r.finish("submit_batch"); !s.ok()) return s;
  if (Status s = validate_name("design name", msg.design); !s.ok()) return s;
  if (priority > static_cast<std::uint8_t>(rt::Priority::kInteractive))
    return Status::invalid_argument("serve: unknown priority class " +
                                    std::to_string(priority));
  msg.priority = static_cast<rt::Priority>(priority);
  if (engine > static_cast<std::uint8_t>(platform::Engine::kJit))
    return Status::invalid_argument("serve: unknown engine selector " +
                                    std::to_string(engine));
  msg.engine = static_cast<platform::Engine>(engine);
  if (msg.vector_count == 0)
    return Status::invalid_argument("serve: submit_batch carries no vectors");
  if (msg.vector_count > kMaxVectorsPerBatch)
    return Status::out_of_range(
        "serve: submit_batch announces " + std::to_string(msg.vector_count) +
        " vectors (cap " + std::to_string(kMaxVectorsPerBatch) + ")");
  // Zero-width vectors are meaningless and, worse, would detach
  // vector_count from the plane-size check (0 planes of any count are 0
  // bytes) — the unpack allocation must stay bounded by the wire bytes.
  if (msg.input_count == 0)
    return Status::invalid_argument(
        "serve: submit_batch carries zero-width vectors");
  if (Status s = validate_planes(msg.planes, msg.vector_count,
                                 msg.input_count, "submit_batch");
      !s.ok())
    return s;
  // Ragged clocked batches are rejected at the wire, before admission or
  // queueing ever sees them: a stream-major batch must divide into whole
  // streams or the register-file layout is meaningless.
  if (msg.cycles > 0 && msg.vector_count % msg.cycles != 0)
    return Status::invalid_argument(
        "serve: submit_batch announces " + std::to_string(msg.vector_count) +
        " vectors, which do not divide into whole " +
        std::to_string(msg.cycles) + "-cycle streams");
  return msg;
}

// ---- result ----------------------------------------------------------------

std::vector<std::uint8_t> encode_result(const ResultMsg& msg) {
  Writer w;
  w.u64(msg.request_id);
  w.u32(msg.vector_count);
  w.u16(msg.output_count);
  w.blob32(msg.planes);
  return encode_frame(MsgType::kResult, w.bytes);
}

Result<ResultMsg> decode_result(const Frame& frame) {
  if (Status s = expect_type(frame, MsgType::kResult, "result"); !s.ok())
    return s;
  Reader r{frame.payload};
  ResultMsg msg;
  msg.request_id = r.u64("request_id");
  msg.vector_count = r.u32("vector_count");
  msg.output_count = r.u16("output_count");
  msg.planes = r.blob32("result planes");
  if (Status s = r.finish("result"); !s.ok()) return s;
  // Results answer submits, so the same count bounds apply; output_count
  // may be 0 (a design with no bound outputs), which is exactly why the
  // vector-count cap — not the plane size — bounds the unpack allocation.
  if (msg.vector_count == 0)
    return Status::invalid_argument("serve: result carries no vectors");
  if (msg.vector_count > kMaxVectorsPerBatch)
    return Status::out_of_range(
        "serve: result announces " + std::to_string(msg.vector_count) +
        " vectors (cap " + std::to_string(kMaxVectorsPerBatch) + ")");
  if (Status s = validate_planes(msg.planes, msg.vector_count,
                                 msg.output_count, "result");
      !s.ok())
    return s;
  return msg;
}

// ---- busy ------------------------------------------------------------------

std::vector<std::uint8_t> encode_busy(const BusyMsg& msg) {
  Writer w;
  w.u64(msg.request_id);
  w.str(msg.reason);
  return encode_frame(MsgType::kBusy, w.bytes);
}

Result<BusyMsg> decode_busy(const Frame& frame) {
  if (Status s = expect_type(frame, MsgType::kBusy, "busy"); !s.ok())
    return s;
  Reader r{frame.payload};
  BusyMsg msg;
  msg.request_id = r.u64("request_id");
  msg.reason = r.str("reason");
  if (Status s = r.finish("busy"); !s.ok()) return s;
  return msg;
}

// ---- error -----------------------------------------------------------------

std::vector<std::uint8_t> encode_error(const ErrorMsg& msg) {
  Writer w;
  w.u64(msg.request_id);
  w.u8(status_code_to_wire(msg.code));
  w.str(msg.message);
  return encode_frame(MsgType::kError, w.bytes);
}

Result<ErrorMsg> decode_error(const Frame& frame) {
  if (Status s = expect_type(frame, MsgType::kError, "error"); !s.ok())
    return s;
  Reader r{frame.payload};
  ErrorMsg msg;
  msg.request_id = r.u64("request_id");
  const std::uint8_t wire = r.u8("status code");
  msg.message = r.str("message");
  if (Status s = r.finish("error"); !s.ok()) return s;
  auto code = status_code_from_wire(wire);
  if (!code.ok()) return code.status();
  if (*code == StatusCode::kOk)
    return Status::invalid_argument(
        "serve: error frame carries an OK status code");
  msg.code = *code;
  return msg;
}

// ---- stats -----------------------------------------------------------------

std::vector<std::uint8_t> encode_stats_request(const StatsRequestMsg&) {
  return encode_frame(MsgType::kStatsRequest, {});
}

Result<StatsRequestMsg> decode_stats_request(const Frame& frame) {
  if (Status s = expect_type(frame, MsgType::kStatsRequest, "stats_request");
      !s.ok())
    return s;
  if (!frame.payload.empty())
    return Status::invalid_argument(
        "serve: stats_request carries an unexpected payload");
  return StatsRequestMsg{};
}

std::vector<std::uint8_t> encode_stats_reply(const StatsReplyMsg& msg) {
  Writer w;
  w.u64(msg.session_id);
  w.u64(msg.jobs_submitted);
  w.u64(msg.jobs_completed);
  w.u64(msg.jobs_rejected);
  w.u64(msg.jobs_failed);
  w.u64(msg.in_flight);
  w.u64(msg.designs_resident);
  w.u64(msg.pool_queue_depth);
  return encode_frame(MsgType::kStatsReply, w.bytes);
}

Result<StatsReplyMsg> decode_stats_reply(const Frame& frame) {
  if (Status s = expect_type(frame, MsgType::kStatsReply, "stats_reply");
      !s.ok())
    return s;
  Reader r{frame.payload};
  StatsReplyMsg msg;
  msg.session_id = r.u64("session_id");
  msg.jobs_submitted = r.u64("jobs_submitted");
  msg.jobs_completed = r.u64("jobs_completed");
  msg.jobs_rejected = r.u64("jobs_rejected");
  msg.jobs_failed = r.u64("jobs_failed");
  msg.in_flight = r.u64("in_flight");
  msg.designs_resident = r.u64("designs_resident");
  msg.pool_queue_depth = r.u64("pool_queue_depth");
  if (Status s = r.finish("stats_reply"); !s.ok()) return s;
  return msg;
}

}  // namespace pp::serve
