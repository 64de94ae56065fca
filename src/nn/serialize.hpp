// Model checkpointing: binary save/load of an MLP and its configuration.
//
// Long heterogeneous training runs need restartable state. The v2 format
// wraps every checkpoint in a crash-consistent envelope:
//
//   [4]  magic "HSGD"
//   [u32] format version
//   [u64] payload size in bytes
//   [u32] CRC32 of the payload
//   [..] payload
//
// and every file is written through atomic_write_file (tmp + flush +
// rename), so a reader only ever sees a complete old file or a complete
// new file, and a torn/corrupt one is rejected by size or CRC instead of
// being half-trusted. The model payload is the versioned architecture
// header followed by raw row-major layer data. Endianness follows the
// host (checkpoints are not a wire format).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "nn/model.hpp"

namespace hetsgd::nn {

// Current checkpoint format version (v2 = CRC envelope + atomic writes).
inline constexpr std::uint32_t kCheckpointVersion = 2;

// ---- Envelope ------------------------------------------------------------

// Wraps `payload` in the magic/version/size/CRC envelope and atomically
// writes it to `path`. False + *error on I/O failure; never aborts.
bool write_envelope_file(const std::string& path,
                         const std::vector<std::uint8_t>& payload,
                         std::string* error);

// Reads `path`, validates magic, version, size, and CRC, and returns the
// payload. False + *error on any mismatch — a torn or bit-rotted file
// must fail soft so recovery can fall back to an older checkpoint.
bool read_envelope_file(const std::string& path,
                        std::vector<std::uint8_t>* payload,
                        std::string* error);

// ---- Model payload helpers (composable into larger checkpoints) ----------

// Appends architecture header + parameters to `w`.
void write_model(ByteWriter& w, const Model& model);

// Reads a model written by write_model. nullopt + *error on truncation,
// implausible header, or shape mismatch.
std::optional<Model> read_model(ByteReader& r, std::string* error);

// ---- Whole-file model checkpoints ----------------------------------------

// Atomically writes the model (architecture + parameters) to `path`.
// False + *error on I/O failure (disk full, EIO, unwritable directory);
// the previous file at `path`, if any, is left intact.
bool try_save_model(const Model& model, const std::string& path,
                    std::string* error = nullptr);

// Writes the model to `path`. Aborts on I/O failure — the convenience
// wrapper for tools where a failed save is fatal.
void save_model(const Model& model, const std::string& path);

// Reads a checkpoint written by save_model. Returns std::nullopt — never
// aborts — on a missing file, bad magic, unsupported version, CRC
// mismatch, implausible header fields, or truncated data; when `error` is
// non-null it receives a human-readable reason. Recovery paths must be
// able to survive a corrupt file.
std::optional<Model> try_load_model(const std::string& path,
                                    std::string* error = nullptr);

// Reads a checkpoint written by save_model. Aborts on any load failure —
// the convenience wrapper for tools where a bad checkpoint is fatal.
Model load_model(const std::string& path);

}  // namespace hetsgd::nn
