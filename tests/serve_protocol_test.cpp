// Wire-input robustness sweep over the PPSV frame codec, mirroring
// bitstream_fuzz_test: every message type round-trips exactly; every
// truncation point and a battery of single-byte corruptions of every
// encoded frame fail with a clean Status (never a throw); and crafted
// frames with a re-fixed CRC exercise the semantic checks *behind* the
// CRC (counts vs payload size, enum ranges, name syntax, pad bits).
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/bitstream.h"
#include "map/netlist.h"
#include "platform/compiler.h"
#include "platform/executor.h"
#include "serve/protocol.h"
#include "util/rng.h"

namespace pp {
namespace {

using platform::BitVector;
using serve::Frame;
using serve::MsgType;

platform::CompiledDesign compile_or_die(const map::Netlist& netlist) {
  auto design = platform::compile(netlist);
  EXPECT_TRUE(design.ok()) << design.status().to_string();
  return std::move(*design);
}

/// Recompute a frame's trailing CRC after a deliberate body edit, so a
/// crafted frame reaches the per-message validation behind the CRC.
void fix_frame_crc(std::vector<std::uint8_t>& bytes) {
  const auto body =
      std::span<const std::uint8_t>(bytes).first(bytes.size() - 4);
  const std::uint32_t crc = core::crc32(body);
  for (int i = 0; i < 4; ++i)
    bytes[bytes.size() - 4 + i] =
        static_cast<std::uint8_t>((crc >> (8 * i)) & 0xFF);
}

/// Decode a full frame through the generic layer (the path every wire
/// byte takes before a per-message decoder sees it).
Result<Frame> decode(const std::vector<std::uint8_t>& bytes) {
  return serve::decode_frame(bytes);
}

serve::RegisterDesignMsg sample_register() {
  const auto parity = compile_or_die(map::make_parity(5));
  serve::RegisterDesignMsg msg;
  msg.request_id = 7;
  msg.design = "parity5";
  msg.rows = static_cast<std::uint16_t>(parity.fabric.rows());
  msg.cols = static_cast<std::uint16_t>(parity.fabric.cols());
  msg.delays = parity.delays;
  msg.content_hash = parity.content_hash;
  msg.inputs = parity.inputs;
  msg.outputs = parity.outputs;
  msg.bitstream = parity.bitstream;
  return msg;
}

/// A sequential design's registration, with boundary-register state on the
/// wire (protocol v2) — the clocked-serving path's upload shape.
serve::RegisterDesignMsg sample_register_sequential() {
  const auto counter = compile_or_die(map::make_counter(2));
  serve::RegisterDesignMsg msg;
  msg.request_id = 8;
  msg.design = "counter2";
  msg.rows = static_cast<std::uint16_t>(counter.fabric.rows());
  msg.cols = static_cast<std::uint16_t>(counter.fabric.cols());
  msg.delays = counter.delays;
  msg.content_hash = counter.content_hash;
  msg.inputs = counter.inputs;
  msg.outputs = counter.outputs;
  msg.state = counter.state;
  msg.bitstream = counter.bitstream;
  EXPECT_FALSE(msg.state.empty());
  return msg;
}

serve::SubmitBatchMsg sample_submit() {
  // 11 vectors of 5 bits: deliberately not a multiple of 8, so the pad-bit
  // rules are live.
  std::vector<BitVector> vectors(11, BitVector(5, false));
  util::Rng rng(3);
  for (auto& v : vectors)
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = rng.next_bool();
  serve::SubmitBatchMsg msg;
  msg.request_id = 9;
  msg.design = "parity5";
  msg.priority = rt::Priority::kInteractive;
  msg.deadline_ms = 250;
  msg.engine = platform::Engine::kCompiled;
  msg.cycles = 11;  // one whole 11-cycle stream — the v2 clocked field live
  msg.vector_count = 11;
  msg.input_count = 5;
  msg.planes = platform::pack_bit_planes(vectors, 5);
  return msg;
}

/// One encoded frame of every message type, for the sweeps.
std::vector<std::vector<std::uint8_t>> all_sample_frames() {
  std::vector<std::vector<std::uint8_t>> frames;
  frames.push_back(serve::encode_hello({.tenant = "acme"}));
  frames.push_back(serve::encode_hello_ack({.session_id = 42}));
  frames.push_back(serve::encode_register_design(sample_register()));
  frames.push_back(serve::encode_register_design(sample_register_sequential()));
  frames.push_back(serve::encode_register_ack({.request_id = 7}));
  frames.push_back(serve::encode_submit_batch(sample_submit()));
  {
    std::vector<BitVector> results(11, BitVector(2, true));
    serve::ResultMsg msg;
    msg.request_id = 9;
    msg.vector_count = 11;
    msg.output_count = 2;
    msg.planes = platform::pack_bit_planes(results, 2);
    frames.push_back(serve::encode_result(msg));
  }
  frames.push_back(
      serve::encode_busy({.request_id = 9, .reason = "queue full"}));
  frames.push_back(serve::encode_error({.request_id = 9,
                                        .code = StatusCode::kNotFound,
                                        .message = "no such design"}));
  frames.push_back(serve::encode_stats_request({}));
  {
    serve::StatsReplyMsg msg;
    msg.session_id = 42;
    msg.jobs_submitted = 10;
    msg.jobs_completed = 8;
    msg.jobs_rejected = 1;
    msg.jobs_failed = 1;
    msg.in_flight = 0;
    msg.designs_resident = 2;
    msg.pool_queue_depth = 3;
    frames.push_back(serve::encode_stats_reply(msg));
  }
  return frames;
}

// ---- round trips -----------------------------------------------------------

TEST(ServeProtocol, EveryMessageTypeRoundTripsExactly) {
  {
    auto frame = decode(serve::encode_hello({.tenant = "acme"}));
    ASSERT_TRUE(frame.ok()) << frame.status().to_string();
    auto msg = serve::decode_hello(*frame);
    ASSERT_TRUE(msg.ok()) << msg.status().to_string();
    EXPECT_EQ(msg->tenant, "acme");
  }
  {
    auto frame = decode(serve::encode_hello_ack({.session_id = 42}));
    ASSERT_TRUE(frame.ok());
    auto msg = serve::decode_hello_ack(*frame);
    ASSERT_TRUE(msg.ok());
    EXPECT_EQ(msg->session_id, 42u);
  }
  {
    const auto original = sample_register();
    auto frame = decode(serve::encode_register_design(original));
    ASSERT_TRUE(frame.ok());
    auto msg = serve::decode_register_design(*frame);
    ASSERT_TRUE(msg.ok()) << msg.status().to_string();
    EXPECT_EQ(msg->request_id, original.request_id);
    EXPECT_EQ(msg->design, original.design);
    EXPECT_EQ(msg->rows, original.rows);
    EXPECT_EQ(msg->cols, original.cols);
    EXPECT_EQ(msg->delays.nand_ps, original.delays.nand_ps);
    EXPECT_EQ(msg->content_hash, original.content_hash);
    ASSERT_EQ(msg->inputs.size(), original.inputs.size());
    for (std::size_t i = 0; i < original.inputs.size(); ++i) {
      EXPECT_EQ(msg->inputs[i].name, original.inputs[i].name);
      EXPECT_EQ(msg->inputs[i].at, original.inputs[i].at);
    }
    ASSERT_EQ(msg->outputs.size(), original.outputs.size());
    EXPECT_TRUE(msg->state.empty());  // combinational: no state section
    EXPECT_EQ(msg->bitstream, original.bitstream);
  }
  {
    const auto original = sample_register_sequential();
    auto frame = decode(serve::encode_register_design(original));
    ASSERT_TRUE(frame.ok());
    auto msg = serve::decode_register_design(*frame);
    ASSERT_TRUE(msg.ok()) << msg.status().to_string();
    ASSERT_EQ(msg->state.size(), original.state.size());
    for (std::size_t i = 0; i < original.state.size(); ++i) {
      EXPECT_EQ(msg->state[i].name, original.state[i].name);
      EXPECT_EQ(msg->state[i].q_pad, original.state[i].q_pad);
      EXPECT_EQ(msg->state[i].d_at, original.state[i].d_at);
    }
  }
  {
    const auto original = sample_submit();
    auto frame = decode(serve::encode_submit_batch(original));
    ASSERT_TRUE(frame.ok());
    auto msg = serve::decode_submit_batch(*frame);
    ASSERT_TRUE(msg.ok()) << msg.status().to_string();
    EXPECT_EQ(msg->request_id, original.request_id);
    EXPECT_EQ(msg->design, original.design);
    EXPECT_EQ(msg->priority, original.priority);
    EXPECT_EQ(msg->deadline_ms, original.deadline_ms);
    EXPECT_EQ(msg->engine, original.engine);
    EXPECT_EQ(msg->cycles, original.cycles);
    EXPECT_EQ(msg->vector_count, original.vector_count);
    EXPECT_EQ(msg->input_count, original.input_count);
    EXPECT_EQ(msg->planes, original.planes);
    // The planes decode back to the vectors that were packed.
    auto vectors = platform::unpack_bit_planes(msg->planes, msg->vector_count,
                                               msg->input_count);
    ASSERT_TRUE(vectors.ok());
    EXPECT_EQ(platform::pack_bit_planes(*vectors, msg->input_count),
              original.planes);
  }
  {
    auto frame =
        decode(serve::encode_busy({.request_id = 5, .reason = "full"}));
    ASSERT_TRUE(frame.ok());
    auto msg = serve::decode_busy(*frame);
    ASSERT_TRUE(msg.ok());
    EXPECT_EQ(msg->request_id, 5u);
    EXPECT_EQ(msg->reason, "full");
  }
  {
    auto frame = decode(serve::encode_error(
        {.request_id = 5, .code = StatusCode::kDeadlineExceeded,
         .message = "too late"}));
    ASSERT_TRUE(frame.ok());
    auto msg = serve::decode_error(*frame);
    ASSERT_TRUE(msg.ok());
    EXPECT_EQ(msg->code, StatusCode::kDeadlineExceeded);
    EXPECT_EQ(msg->message, "too late");
  }
}

TEST(ServeProtocol, StatusCodesRoundTripAndUnknownValuesFail) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument,
        StatusCode::kFailedPrecondition, StatusCode::kOutOfRange,
        StatusCode::kNotFound, StatusCode::kResourceExhausted,
        StatusCode::kDataLoss, StatusCode::kUnimplemented,
        StatusCode::kDeadlineExceeded, StatusCode::kUnavailable,
        StatusCode::kInternal}) {
    auto back = serve::status_code_from_wire(serve::status_code_to_wire(code));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, code);
  }
  EXPECT_FALSE(serve::status_code_from_wire(200).ok());
}

// ---- generic frame validation ----------------------------------------------

TEST(ServeProtocol, HeaderRejectsBadMagicVersionTypeAndLength) {
  const auto good = serve::encode_hello({.tenant = "acme"});
  {
    auto bytes = good;
    bytes[0] = 'X';
    EXPECT_EQ(decode(bytes).status().code(), StatusCode::kInvalidArgument);
  }
  {
    auto bytes = good;
    bytes[4] = serve::kProtocolVersion + 1;
    EXPECT_EQ(decode(bytes).status().code(), StatusCode::kInvalidArgument);
  }
  for (const std::uint8_t type : {std::uint8_t{0}, std::uint8_t{11},
                                  std::uint8_t{255}}) {
    auto bytes = good;
    bytes[5] = type;
    EXPECT_EQ(decode(bytes).status().code(), StatusCode::kInvalidArgument)
        << "type " << int(type);
  }
  {
    // A header announcing more than the payload cap is rejected from the
    // fixed prefix alone — a reader never allocates for it.
    auto bytes = good;
    bytes[6] = 0xFF;
    bytes[7] = 0xFF;
    bytes[8] = 0xFF;
    bytes[9] = 0x7F;
    EXPECT_EQ(serve::decode_header(
                  std::span<const std::uint8_t>(bytes).first(
                      serve::kHeaderBytes))
                  .status()
                  .code(),
              StatusCode::kOutOfRange);
  }
  {
    // CRC corruption alone (valid header, exact size): kDataLoss.
    auto bytes = good;
    bytes[bytes.size() - 1] ^= 0x01;
    EXPECT_EQ(decode(bytes).status().code(), StatusCode::kDataLoss);
  }
}

TEST(ServeProtocol, EveryTruncationOfEveryMessageFailsCleanly) {
  for (const auto& bytes : all_sample_frames()) {
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      Status status;
      EXPECT_NO_THROW(
          status = decode(std::vector<std::uint8_t>(bytes.begin(),
                                                    bytes.begin() + len))
                       .status());
      EXPECT_FALSE(status.ok())
          << "truncation at " << len << " of a " << bytes.size()
          << "-byte frame accepted";
    }
  }
}

TEST(ServeProtocol, EverySingleByteCorruptionOfEveryMessageFailsCleanly) {
  util::Rng rng(17);
  for (const auto& bytes : all_sample_frames()) {
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
      const std::uint8_t masks[] = {
          0x01, 0x80, static_cast<std::uint8_t>(1 + rng.next_below(255))};
      for (const std::uint8_t mask : masks) {
        auto corrupt = bytes;
        corrupt[pos] ^= mask;
        Status status;
        // The CRC covers every byte ahead of it, so any flip — header,
        // payload, or the CRC itself — must be caught by some layer.
        EXPECT_NO_THROW(status = decode(corrupt).status());
        EXPECT_FALSE(status.ok())
            << "flip at byte " << pos << " mask " << int(mask) << " accepted";
      }
    }
  }
}

// ---- semantic checks behind the CRC ----------------------------------------

TEST(ServeProtocol, SubmitBatchRejectsCraftedCountAndEnumCorruption) {
  const auto original = sample_submit();
  const auto good = serve::encode_submit_batch(original);
  // Payload layout: request_id u64, u16 len + design, priority u8,
  // deadline u32, engine u8, cycles u32 (v2), vector_count u32, ...
  const std::size_t design_at = serve::kHeaderBytes + 8;
  const std::size_t priority_at = design_at + 2 + original.design.size();
  const std::size_t engine_at = priority_at + 1 + 4;
  const std::size_t cycles_at = engine_at + 1;
  const std::size_t count_at = cycles_at + 4;

  {
    auto crafted = good;
    crafted[priority_at] = 7;  // unknown priority class
    fix_frame_crc(crafted);
    auto frame = decode(crafted);
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(serve::decode_submit_batch(*frame).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    auto crafted = good;
    crafted[engine_at] = 9;  // unknown engine selector
    fix_frame_crc(crafted);
    auto frame = decode(crafted);
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(serve::decode_submit_batch(*frame).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    auto crafted = good;
    crafted[count_at] = 200;  // count disagrees with the plane bytes
    fix_frame_crc(crafted);
    auto frame = decode(crafted);
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(serve::decode_submit_batch(*frame).status().code(),
              StatusCode::kOutOfRange);
  }
  {
    // Ragged clocked batch: 11 vectors cannot divide into 4-cycle
    // streams — the v2 cycles field is validated behind the CRC too.
    auto crafted = good;
    crafted[cycles_at] = 4;
    fix_frame_crc(crafted);
    auto frame = decode(crafted);
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(serve::decode_submit_batch(*frame).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    // Non-canonical pad bits (11 vectors -> 5 pad bits per plane byte 2).
    auto crafted = good;
    crafted[crafted.size() - 4 - 1] |= 0x80;  // last plane byte, pad bit
    fix_frame_crc(crafted);
    auto frame = decode(crafted);
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(serve::decode_submit_batch(*frame).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    // Zero vectors with an empty plane blob: structurally consistent,
    // semantically meaningless — rejected.
    auto zero = original;
    zero.vector_count = 0;
    zero.planes.clear();
    auto frame = decode(serve::encode_submit_batch(zero));
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(serve::decode_submit_batch(*frame).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(ServeProtocol, SubmitBatchRejectsAllocationAmplificationAttacks) {
  // The OOM shape: zero-width vectors make every vector_count consistent
  // with an empty plane blob (0 planes x anything = 0 bytes), so a
  // ~60-byte frame could announce 4.3e9 vectors.  Decode must kill it
  // before anything is sized by the count.
  {
    serve::SubmitBatchMsg hostile;
    hostile.request_id = 1;
    hostile.design = "d";
    hostile.vector_count = 0xFFFFFFFFu;
    hostile.input_count = 0;
    auto frame = decode(serve::encode_submit_batch(hostile));
    ASSERT_TRUE(frame.ok());
    EXPECT_FALSE(serve::decode_submit_batch(*frame).ok());
  }
  // Zero-width is rejected for its own sake, not just via the count cap.
  {
    serve::SubmitBatchMsg hostile;
    hostile.request_id = 1;
    hostile.design = "d";
    hostile.vector_count = 5;
    hostile.input_count = 0;
    auto frame = decode(serve::encode_submit_batch(hostile));
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(serve::decode_submit_batch(*frame).status().code(),
              StatusCode::kInvalidArgument);
  }
  // Nonzero width bounds the count by the plane bytes, but one-bit
  // vectors still amplify ~50x into BitVector objects — the explicit
  // vector cap holds even when the planes are self-consistent.
  {
    const std::uint32_t count = serve::kMaxVectorsPerBatch + 8;
    serve::SubmitBatchMsg hostile;
    hostile.request_id = 2;
    hostile.design = "d";
    hostile.vector_count = count;
    hostile.input_count = 1;
    hostile.planes.assign(count / 8, 0);  // consistent, canonical planes
    auto frame = decode(serve::encode_submit_batch(hostile));
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(serve::decode_submit_batch(*frame).status().code(),
              StatusCode::kOutOfRange);
  }
  // The largest legal count decodes fine (the cap is a bound, not a bug).
  {
    serve::SubmitBatchMsg legal;
    legal.request_id = 3;
    legal.design = "d";
    legal.vector_count = serve::kMaxVectorsPerBatch;
    legal.input_count = 1;
    legal.planes.assign(serve::kMaxVectorsPerBatch / 8, 0);
    auto frame = decode(serve::encode_submit_batch(legal));
    ASSERT_TRUE(frame.ok());
    EXPECT_TRUE(serve::decode_submit_batch(*frame).ok());
  }
}

TEST(ServeProtocol, ResultRejectsAllocationAmplificationAttacks) {
  // The mirror-image hole on the client side: a result with output_count
  // 0 passes the plane-size check for any vector_count, so a malicious
  // server could OOM a client with one small kResult frame.
  {
    serve::ResultMsg hostile;
    hostile.request_id = 1;
    hostile.vector_count = 0xFFFFFFFFu;
    hostile.output_count = 0;
    auto frame = decode(serve::encode_result(hostile));
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(serve::decode_result(*frame).status().code(),
              StatusCode::kOutOfRange);
  }
  {
    serve::ResultMsg zero;
    zero.request_id = 2;
    zero.vector_count = 0;
    zero.output_count = 2;
    auto frame = decode(serve::encode_result(zero));
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(serve::decode_result(*frame).status().code(),
              StatusCode::kInvalidArgument);
  }
  // output_count 0 with a *bounded* count stays legal: a design may bind
  // no outputs, and the vector cap alone bounds the reply's allocation.
  {
    serve::ResultMsg legal;
    legal.request_id = 3;
    legal.vector_count = 16;
    legal.output_count = 0;
    auto frame = decode(serve::encode_result(legal));
    ASSERT_TRUE(frame.ok());
    EXPECT_TRUE(serve::decode_result(*frame).ok());
  }
}

TEST(ServeProtocol, NameRulesRejectSeparatorsAndOversizedNames) {
  EXPECT_TRUE(serve::validate_name("x", "A-ok_name.v2").ok());
  EXPECT_FALSE(serve::validate_name("x", "").ok());
  EXPECT_FALSE(serve::validate_name("x", "has/slash").ok());
  EXPECT_FALSE(serve::validate_name("x", "has space").ok());
  EXPECT_FALSE(serve::validate_name("x", std::string(65, 'a')).ok());
  EXPECT_TRUE(serve::validate_name("x", std::string(64, 'a')).ok());

  // The rules are live on the wire: a hello whose tenant smuggles the
  // namespace separator decodes to a clean failure.
  auto crafted = serve::encode_hello({.tenant = "a/b"});
  auto frame = decode(crafted);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(serve::decode_hello(*frame).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ServeProtocol, TrailingPayloadBytesAreRejected) {
  // Append one byte to a hello payload and re-frame: the per-message
  // decoder must consume the payload exactly.
  serve::HelloMsg msg{.tenant = "acme"};
  auto inner = serve::encode_hello(msg);
  // Extract the payload, extend it, re-encode the frame around it.
  auto frame = decode(inner);
  ASSERT_TRUE(frame.ok());
  auto payload = frame->payload;
  payload.push_back(0);
  auto extended = serve::encode_frame(MsgType::kHello, payload);
  auto reframed = decode(extended);
  ASSERT_TRUE(reframed.ok());
  EXPECT_EQ(serve::decode_hello(*reframed).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ServeProtocol, ErrorFrameRejectsUnknownAndOkStatusCodes) {
  auto good = serve::encode_error({.request_id = 1,
                                   .code = StatusCode::kNotFound,
                                   .message = "m"});
  const std::size_t code_at = serve::kHeaderBytes + 8;
  {
    auto crafted = good;
    crafted[code_at] = 77;
    fix_frame_crc(crafted);
    auto frame = decode(crafted);
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(serve::decode_error(*frame).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    auto crafted = good;
    crafted[code_at] = 0;  // OK is not an error
    fix_frame_crc(crafted);
    auto frame = decode(crafted);
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(serve::decode_error(*frame).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(ServeProtocol, TypeConfusionIsRejected) {
  // A frame of one type handed to another type's decoder fails cleanly
  // (the reply router relies on this).
  auto frame = decode(serve::encode_hello({.tenant = "acme"}));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(serve::decode_submit_batch(*frame).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(serve::decode_result(*frame).status().code(),
            StatusCode::kInvalidArgument);
}

// ---- the SoA plane helpers -------------------------------------------------

TEST(ServeProtocol, BitPlanePackingRoundTripsAndRejectsNonCanonicalBytes) {
  util::Rng rng(23);
  for (const std::size_t count : {1u, 7u, 8u, 9u, 64u, 100u}) {
    for (const std::size_t width : {1u, 3u, 16u}) {
      std::vector<BitVector> vectors(count, BitVector(width, false));
      for (auto& v : vectors)
        for (std::size_t i = 0; i < width; ++i) v[i] = rng.next_bool();
      const auto bytes = platform::pack_bit_planes(vectors, width);
      const std::size_t plane_bytes = (count + 7) / 8;
      EXPECT_EQ(bytes.size(), width * plane_bytes);
      // The layout itself, bit for bit: vector v's bit i is bit v % 8 of
      // byte v / 8 of plane i, and every pad bit is zero.
      for (std::size_t i = 0; i < width; ++i)
        for (std::size_t v = 0; v < plane_bytes * 8; ++v)
          EXPECT_EQ((bytes[i * plane_bytes + v / 8] >> (v % 8)) & 1,
                    v < count && vectors[v][i] ? 1 : 0)
              << "plane " << i << " bit " << v;
      auto back = platform::unpack_bit_planes(bytes, count, width);
      ASSERT_TRUE(back.ok()) << back.status().to_string();
      EXPECT_EQ(*back, vectors);
    }
  }
  // Wrong byte count and non-zero pad bits are both rejected.
  std::vector<BitVector> vectors(3, BitVector(2, true));
  auto bytes = platform::pack_bit_planes(vectors, 2);
  EXPECT_FALSE(platform::unpack_bit_planes(bytes, 3, 3).ok());
  bytes[0] |= 0xF8;  // pad bits of plane 0 (only bits 0..2 are real)
  EXPECT_FALSE(platform::unpack_bit_planes(bytes, 3, 2).ok());
}

}  // namespace
}  // namespace pp
