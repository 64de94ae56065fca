#include "nn/serialize.hpp"

#include <cstdint>
#include <cstring>

#include "common/macros.hpp"

namespace hetsgd::nn {

namespace {

constexpr char kMagic[4] = {'H', 'S', 'G', 'D'};

// Envelope bytes before the payload: magic + version + size + CRC.
constexpr std::size_t kEnvelopeBytes = 4 + 4 + 8 + 4;

// Upper bound on any single checkpoint dimension. Garbage headers must not
// turn into multi-terabyte allocations before the shape check can reject
// them.
constexpr std::int64_t kMaxDim = 1 << 24;

void write_matrix(ByteWriter& w, const tensor::Matrix& m) {
  w.write_i64(m.rows());
  w.write_i64(m.cols());
  w.write_bytes(m.data(), static_cast<std::size_t>(m.size()) *
                              sizeof(tensor::Scalar));
}

bool read_matrix(ByteReader& r, tensor::Matrix& m, std::string* error) {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  if (!r.read_i64(&rows) || !r.read_i64(&cols)) {
    if (error) *error = "checkpoint truncated (layer header)";
    return false;
  }
  if (rows != m.rows() || cols != m.cols()) {
    if (error) *error = "checkpoint layer shape mismatch";
    return false;
  }
  if (!r.read_bytes(m.data(), static_cast<std::size_t>(m.size()) *
                                  sizeof(tensor::Scalar))) {
    if (error) *error = "checkpoint truncated (layer data)";
    return false;
  }
  return true;
}

}  // namespace

bool write_envelope_file(const std::string& path,
                         const std::vector<std::uint8_t>& payload,
                         std::string* error) {
  ByteWriter w;
  w.write_bytes(kMagic, sizeof(kMagic));
  w.write_u32(kCheckpointVersion);
  w.write_u64(static_cast<std::uint64_t>(payload.size()));
  w.write_u32(crc32(payload.data(), payload.size()));
  w.write_bytes(payload.data(), payload.size());
  return atomic_write_file(path, w.data().data(), w.size(), error);
}

bool read_envelope_file(const std::string& path,
                        std::vector<std::uint8_t>* payload,
                        std::string* error) {
  std::vector<std::uint8_t> raw;
  if (!read_file(path, &raw, error)) return false;
  if (raw.size() < kEnvelopeBytes) {
    if (error) *error = "checkpoint truncated (envelope): " + path;
    return false;
  }
  ByteReader r(raw);
  char magic[4] = {};
  r.read_bytes(magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, 4) != 0) {
    if (error) *error = "not a hetsgd checkpoint (bad magic): " + path;
    return false;
  }
  std::uint32_t version = 0;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
  r.read_u32(&version);
  r.read_u64(&size);
  r.read_u32(&crc);
  if (version != kCheckpointVersion) {
    if (error) {
      *error = "unsupported checkpoint version " + std::to_string(version);
    }
    return false;
  }
  if (size != r.remaining()) {
    if (error) *error = "checkpoint truncated (size mismatch, torn write?): " + path;
    return false;
  }
  payload->assign(raw.begin() + kEnvelopeBytes, raw.end());
  if (crc32(payload->data(), payload->size()) != crc) {
    if (error) *error = "checkpoint CRC mismatch (corrupt file): " + path;
    return false;
  }
  return true;
}

void write_model(ByteWriter& w, const Model& model) {
  const MlpConfig& c = model.config();
  w.write_i64(c.input_dim);
  w.write_i64(c.num_classes);
  w.write_u32(static_cast<std::uint32_t>(c.hidden_layers));
  w.write_i64(c.hidden_units);
  w.write_u32(static_cast<std::uint32_t>(c.hidden_activation));
  w.write_u32(static_cast<std::uint32_t>(c.init));

  w.write_u32(static_cast<std::uint32_t>(model.layer_count()));
  for (std::size_t l = 0; l < model.layer_count(); ++l) {
    write_matrix(w, model.layer(l).weights);
    write_matrix(w, model.layer(l).bias);
  }
}

std::optional<Model> read_model(ByteReader& r, std::string* error) {
  MlpConfig c;
  std::uint32_t hidden_layers = 0;
  std::uint32_t activation = 0;
  std::uint32_t init = 0;
  std::int64_t input_dim = 0;
  std::int64_t num_classes = 0;
  std::int64_t hidden_units = 0;
  if (!r.read_i64(&input_dim) || !r.read_i64(&num_classes) ||
      !r.read_u32(&hidden_layers) || !r.read_i64(&hidden_units) ||
      !r.read_u32(&activation) || !r.read_u32(&init)) {
    if (error) *error = "checkpoint truncated (header)";
    return std::nullopt;
  }
  // Sanity-check the header before trusting it with allocations:
  // MlpConfig::validate() aborts, and a corrupted size field could demand
  // terabytes. Everything here must fail soft.
  if (input_dim <= 0 || input_dim > kMaxDim || num_classes < 2 ||
      num_classes > kMaxDim || hidden_layers > 1024 ||
      (hidden_layers > 0 && (hidden_units <= 0 || hidden_units > kMaxDim)) ||
      activation > static_cast<std::uint32_t>(Activation::kRelu) ||
      init > static_cast<std::uint32_t>(InitScheme::kZero)) {
    if (error) *error = "checkpoint header is implausible (corrupt file?)";
    return std::nullopt;
  }
  c.input_dim = input_dim;
  c.num_classes = num_classes;
  c.hidden_layers = static_cast<int>(hidden_layers);
  c.hidden_units = hidden_units;
  c.hidden_activation = static_cast<Activation>(activation);
  c.init = static_cast<InitScheme>(init);

  Rng rng(0);  // placeholder init, immediately overwritten
  Model model(c, rng);
  std::uint32_t layers = 0;
  if (!r.read_u32(&layers)) {
    if (error) *error = "checkpoint truncated (layer count)";
    return std::nullopt;
  }
  if (layers != model.layer_count()) {
    if (error) *error = "checkpoint layer count mismatch";
    return std::nullopt;
  }
  for (std::size_t l = 0; l < model.layer_count(); ++l) {
    if (!read_matrix(r, model.layer(l).weights, error) ||
        !read_matrix(r, model.layer(l).bias, error)) {
      return std::nullopt;
    }
  }
  return model;
}

bool try_save_model(const Model& model, const std::string& path,
                    std::string* error) {
  ByteWriter w;
  write_model(w, model);
  return write_envelope_file(path, w.data(), error);
}

void save_model(const Model& model, const std::string& path) {
  std::string error;
  const bool ok = try_save_model(model, path, &error);
  HETSGD_ASSERT(ok, error.c_str());
}

std::optional<Model> try_load_model(const std::string& path,
                                    std::string* error) {
  std::vector<std::uint8_t> payload;
  if (!read_envelope_file(path, &payload, error)) return std::nullopt;
  ByteReader r(payload);
  return read_model(r, error);
}

Model load_model(const std::string& path) {
  std::string error;
  std::optional<Model> model = try_load_model(path, &error);
  HETSGD_ASSERT(model.has_value(), error.c_str());
  return std::move(*model);
}

}  // namespace hetsgd::nn
