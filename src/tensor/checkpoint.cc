#include "tensor/checkpoint.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/atomic_file.h"
#include "util/checksum.h"
#include "util/fault_injector.h"

namespace imcat {

namespace {

constexpr char kMagic[4] = {'I', 'M', 'C', 'T'};
constexpr uint32_t kVersionLegacy = 1;  ///< Tensors only, no state byte.
constexpr uint32_t kVersion = 2;        ///< Tensors + optional train state.

template <typename T>
Status WriteValue(AtomicFileWriter* out, Fnv1a* hash, T value) {
  hash->Update(&value, sizeof(value));
  return out->Write(&value, sizeof(value));
}

Status WriteFloats(AtomicFileWriter* out, Fnv1a* hash, const float* data,
                   size_t count) {
  const size_t bytes = count * sizeof(float);
  hash->Update(data, bytes);
  return out->Write(data, bytes);
}

/// Checkpoint byte-stream reader: tracks the running checksum and the
/// total file size so length fields can be validated before any
/// allocation (a bit-flipped length must fail cleanly, never bad_alloc).
class Reader {
 public:
  Status Open(const std::string& path) {
    path_ = path;
    in_.open(path, std::ios::binary | std::ios::ate);
    if (!in_.is_open()) return Status::IoError("cannot open " + path);
    file_size_ = static_cast<int64_t>(in_.tellg());
    in_.seekg(0, std::ios::beg);
    return Status::OK();
  }

  const std::string& path() const { return path_; }
  uint64_t checksum() const { return hash_.value(); }
  int64_t remaining() const { return file_size_ - pos_; }

  Status ReadBytes(void* out, size_t size, bool hashed = true) {
    if (static_cast<int64_t>(size) > remaining()) {
      return Status::DataLoss(path_ + ": truncated checkpoint");
    }
    in_.read(static_cast<char*>(out), static_cast<std::streamsize>(size));
    if (!in_.good()) return Status::DataLoss(path_ + ": truncated checkpoint");
    // Injected read-side corruption (the on-disk file stays intact); the
    // running checksum hashes what the reader actually saw, so a flipped
    // byte surfaces as a checksum mismatch.
    FaultInjector& injector = FaultInjector::Instance();
    if (injector.enabled()) {
      injector.FilterRead(pos_, static_cast<unsigned char*>(out), size);
    }
    pos_ += static_cast<int64_t>(size);
    if (hashed) hash_.Update(out, size);
    return Status::OK();
  }

  template <typename T>
  Status Read(T* value) {
    return ReadBytes(value, sizeof(*value));
  }

  /// Validates `count` floats fit in the remaining bytes, then reads them.
  Status ReadFloats(uint64_t count, std::vector<float>* out) {
    if (count > static_cast<uint64_t>(remaining()) / sizeof(float)) {
      return Status::DataLoss(path_ + ": truncated checkpoint");
    }
    out->resize(count);
    return ReadBytes(out->data(), count * sizeof(float));
  }

  Status Skip(uint64_t bytes) {
    if (bytes > static_cast<uint64_t>(remaining())) {
      return Status::DataLoss(path_ + ": truncated checkpoint");
    }
    in_.seekg(static_cast<std::streamoff>(bytes), std::ios::cur);
    if (!in_.good()) return Status::DataLoss(path_ + ": truncated checkpoint");
    pos_ += static_cast<int64_t>(bytes);
    return Status::OK();
  }

 private:
  std::string path_;
  std::ifstream in_;
  Fnv1a hash_;
  int64_t file_size_ = 0;
  int64_t pos_ = 0;
};

Status ReadHeader(Reader* in, uint32_t* version, uint64_t* count) {
  char magic[4];
  Status st = in->ReadBytes(magic, sizeof(magic));
  if (!st.ok() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(in->path() + ": not an IMCAT checkpoint");
  }
  IMCAT_RETURN_IF_ERROR(in->Read(version));
  if (*version != kVersionLegacy && *version != kVersion) {
    return Status::InvalidArgument(in->path() +
                                   ": unsupported checkpoint version " +
                                   std::to_string(*version));
  }
  return in->Read(count);
}

Status WriteTrainState(AtomicFileWriter* out, Fnv1a* hash,
                       const TrainState& state) {
  IMCAT_RETURN_IF_ERROR(WriteValue(out, hash, state.epoch));
  IMCAT_RETURN_IF_ERROR(WriteValue(out, hash, state.best_epoch));
  IMCAT_RETURN_IF_ERROR(WriteValue(out, hash, state.best_recall));
  IMCAT_RETURN_IF_ERROR(WriteValue(out, hash, state.best_ndcg));
  IMCAT_RETURN_IF_ERROR(WriteValue(out, hash, state.best_precision));
  IMCAT_RETURN_IF_ERROR(WriteValue(out, hash, state.best_hit_rate));
  IMCAT_RETURN_IF_ERROR(WriteValue(out, hash, state.best_mrr));
  IMCAT_RETURN_IF_ERROR(WriteValue(out, hash, state.best_num_users));
  IMCAT_RETURN_IF_ERROR(WriteValue(out, hash, state.train_seconds));
  IMCAT_RETURN_IF_ERROR(
      WriteValue(out, hash, state.evals_without_improvement));
  IMCAT_RETURN_IF_ERROR(WriteValue(out, hash, state.lr_scale));
  for (uint64_t word : state.rng.s) {
    IMCAT_RETURN_IF_ERROR(WriteValue(out, hash, word));
  }
  IMCAT_RETURN_IF_ERROR(WriteValue(
      out, hash, static_cast<uint8_t>(state.rng.have_cached_normal)));
  IMCAT_RETURN_IF_ERROR(WriteValue(out, hash, state.rng.cached_normal));

  IMCAT_RETURN_IF_ERROR(
      WriteValue(out, hash, static_cast<uint8_t>(state.has_optimizer)));
  if (state.has_optimizer) {
    IMCAT_RETURN_IF_ERROR(WriteValue(out, hash, state.optimizer.step));
    IMCAT_RETURN_IF_ERROR(WriteValue(
        out, hash, static_cast<uint64_t>(state.optimizer.m.size())));
    for (size_t i = 0; i < state.optimizer.m.size(); ++i) {
      IMCAT_CHECK_EQ(state.optimizer.m[i].size(), state.optimizer.v[i].size());
      IMCAT_RETURN_IF_ERROR(WriteValue(
          out, hash, static_cast<uint64_t>(state.optimizer.m[i].size())));
      IMCAT_RETURN_IF_ERROR(WriteFloats(out, hash, state.optimizer.m[i].data(),
                                        state.optimizer.m[i].size()));
      IMCAT_RETURN_IF_ERROR(WriteFloats(out, hash, state.optimizer.v[i].data(),
                                        state.optimizer.v[i].size()));
    }
  }

  IMCAT_RETURN_IF_ERROR(
      WriteValue(out, hash, static_cast<uint8_t>(state.has_best_params)));
  if (state.has_best_params) {
    IMCAT_RETURN_IF_ERROR(WriteValue(
        out, hash, static_cast<uint64_t>(state.best_params.size())));
    for (const std::vector<float>& p : state.best_params) {
      IMCAT_RETURN_IF_ERROR(
          WriteValue(out, hash, static_cast<uint64_t>(p.size())));
      IMCAT_RETURN_IF_ERROR(WriteFloats(out, hash, p.data(), p.size()));
    }
  }
  return Status::OK();
}

Status ReadTrainState(Reader* in, TrainState* state) {
  IMCAT_RETURN_IF_ERROR(in->Read(&state->epoch));
  IMCAT_RETURN_IF_ERROR(in->Read(&state->best_epoch));
  IMCAT_RETURN_IF_ERROR(in->Read(&state->best_recall));
  IMCAT_RETURN_IF_ERROR(in->Read(&state->best_ndcg));
  IMCAT_RETURN_IF_ERROR(in->Read(&state->best_precision));
  IMCAT_RETURN_IF_ERROR(in->Read(&state->best_hit_rate));
  IMCAT_RETURN_IF_ERROR(in->Read(&state->best_mrr));
  IMCAT_RETURN_IF_ERROR(in->Read(&state->best_num_users));
  IMCAT_RETURN_IF_ERROR(in->Read(&state->train_seconds));
  IMCAT_RETURN_IF_ERROR(in->Read(&state->evals_without_improvement));
  IMCAT_RETURN_IF_ERROR(in->Read(&state->lr_scale));
  for (uint64_t& word : state->rng.s) {
    IMCAT_RETURN_IF_ERROR(in->Read(&word));
  }
  uint8_t have_cached = 0;
  IMCAT_RETURN_IF_ERROR(in->Read(&have_cached));
  state->rng.have_cached_normal = have_cached != 0;
  IMCAT_RETURN_IF_ERROR(in->Read(&state->rng.cached_normal));

  uint8_t has_optimizer = 0;
  IMCAT_RETURN_IF_ERROR(in->Read(&has_optimizer));
  state->has_optimizer = has_optimizer != 0;
  if (state->has_optimizer) {
    IMCAT_RETURN_IF_ERROR(in->Read(&state->optimizer.step));
    uint64_t param_count = 0;
    IMCAT_RETURN_IF_ERROR(in->Read(&param_count));
    // Each parameter contributes at least a length field; a bit-flipped
    // count must fail before the resize below can over-allocate.
    if (param_count >
        static_cast<uint64_t>(in->remaining()) / sizeof(uint64_t)) {
      return Status::DataLoss(in->path() + ": truncated checkpoint");
    }
    state->optimizer.m.resize(param_count);
    state->optimizer.v.resize(param_count);
    for (uint64_t i = 0; i < param_count; ++i) {
      uint64_t n = 0;
      IMCAT_RETURN_IF_ERROR(in->Read(&n));
      if (n > static_cast<uint64_t>(in->remaining()) / (2 * sizeof(float))) {
        return Status::DataLoss(in->path() + ": truncated checkpoint");
      }
      IMCAT_RETURN_IF_ERROR(in->ReadFloats(n, &state->optimizer.m[i]));
      IMCAT_RETURN_IF_ERROR(in->ReadFloats(n, &state->optimizer.v[i]));
    }
  }

  uint8_t has_best = 0;
  IMCAT_RETURN_IF_ERROR(in->Read(&has_best));
  state->has_best_params = has_best != 0;
  if (state->has_best_params) {
    uint64_t count = 0;
    IMCAT_RETURN_IF_ERROR(in->Read(&count));
    if (count > static_cast<uint64_t>(in->remaining()) / sizeof(uint64_t)) {
      return Status::DataLoss(in->path() + ": truncated checkpoint");
    }
    state->best_params.resize(count);
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t n = 0;
      IMCAT_RETURN_IF_ERROR(in->Read(&n));
      IMCAT_RETURN_IF_ERROR(in->ReadFloats(n, &state->best_params[i]));
    }
  }
  return Status::OK();
}

Status SaveImpl(const std::string& path, const std::vector<Tensor>& tensors,
                const TrainState* state) {
  AtomicFileWriter out(path);
  IMCAT_RETURN_IF_ERROR(out.Open());
  Fnv1a hash;
  hash.Update(kMagic, sizeof(kMagic));
  IMCAT_RETURN_IF_ERROR(out.Write(kMagic, sizeof(kMagic)));
  IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, kVersion));
  IMCAT_RETURN_IF_ERROR(
      WriteValue(&out, &hash, static_cast<uint64_t>(tensors.size())));
  for (const Tensor& t : tensors) {
    IMCAT_CHECK(t.defined());
    IMCAT_RETURN_IF_ERROR(
        WriteValue(&out, &hash, static_cast<uint64_t>(t.rows())));
    IMCAT_RETURN_IF_ERROR(
        WriteValue(&out, &hash, static_cast<uint64_t>(t.cols())));
    IMCAT_RETURN_IF_ERROR(
        WriteFloats(&out, &hash, t.data(), static_cast<size_t>(t.size())));
  }
  IMCAT_RETURN_IF_ERROR(
      WriteValue(&out, &hash, static_cast<uint8_t>(state != nullptr)));
  if (state != nullptr) {
    IMCAT_RETURN_IF_ERROR(WriteTrainState(&out, &hash, *state));
  }
  const uint64_t checksum = hash.value();
  IMCAT_RETURN_IF_ERROR(out.Write(&checksum, sizeof(checksum)));
  return out.Commit();
}

Status LoadImpl(const std::string& path, std::vector<Tensor>* tensors,
                TrainState* state, bool* has_state) {
  Reader in;
  IMCAT_RETURN_IF_ERROR(in.Open(path));
  uint32_t version = 0;
  uint64_t count = 0;
  IMCAT_RETURN_IF_ERROR(ReadHeader(&in, &version, &count));
  if (count != tensors->size()) {
    return Status::InvalidArgument(
        path + ": checkpoint holds " + std::to_string(count) +
        " tensors, model expects " + std::to_string(tensors->size()));
  }
  // Stage into scratch buffers first so a corrupt file leaves the model
  // parameters (and any caller-provided state) untouched.
  std::vector<std::vector<float>> staged(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t rows = 0, cols = 0;
    IMCAT_RETURN_IF_ERROR(in.Read(&rows));
    IMCAT_RETURN_IF_ERROR(in.Read(&cols));
    const Tensor& target = (*tensors)[i];
    if (static_cast<int64_t>(rows) != target.rows() ||
        static_cast<int64_t>(cols) != target.cols()) {
      return Status::InvalidArgument(
          path + ": tensor " + std::to_string(i) + " shape mismatch");
    }
    IMCAT_RETURN_IF_ERROR(in.ReadFloats(rows * cols, &staged[i]));
  }
  TrainState staged_state;
  bool staged_has_state = false;
  if (version >= kVersion) {
    uint8_t flag = 0;
    IMCAT_RETURN_IF_ERROR(in.Read(&flag));
    staged_has_state = flag != 0;
    if (staged_has_state) {
      IMCAT_RETURN_IF_ERROR(ReadTrainState(&in, &staged_state));
    }
  }
  const uint64_t computed = in.checksum();
  uint64_t stored_checksum = 0;
  IMCAT_RETURN_IF_ERROR(
      in.ReadBytes(&stored_checksum, sizeof(stored_checksum), false));
  if (in.remaining() != 0) {
    return Status::DataLoss(path + ": trailing bytes after checksum");
  }
  if (stored_checksum != computed) {
    return Status::DataLoss(path + ": checksum mismatch");
  }
  for (uint64_t i = 0; i < count; ++i) {
    std::memcpy((*tensors)[i].data(), staged[i].data(),
                staged[i].size() * sizeof(float));
    (*tensors)[i].MarkRestored();
  }
  if (state != nullptr && staged_has_state) *state = std::move(staged_state);
  if (has_state != nullptr) *has_state = staged_has_state;
  return Status::OK();
}

}  // namespace

Status SaveCheckpoint(const std::string& path,
                      const std::vector<Tensor>& tensors) {
  return SaveImpl(path, tensors, nullptr);
}

Status SaveTrainingCheckpoint(const std::string& path,
                              const std::vector<Tensor>& tensors,
                              const TrainState& state) {
  return SaveImpl(path, tensors, &state);
}

Status LoadCheckpoint(const std::string& path, std::vector<Tensor>* tensors) {
  return LoadImpl(path, tensors, nullptr, nullptr);
}

Status LoadTrainingCheckpoint(const std::string& path,
                              std::vector<Tensor>* tensors, TrainState* state,
                              bool* has_state) {
  return LoadImpl(path, tensors, state, has_state);
}

StatusOr<std::vector<std::pair<int64_t, int64_t>>> ReadCheckpointShapes(
    const std::string& path) {
  Reader in;
  IMCAT_RETURN_IF_ERROR(in.Open(path));
  uint32_t version = 0;
  uint64_t count = 0;
  IMCAT_RETURN_IF_ERROR(ReadHeader(&in, &version, &count));
  std::vector<std::pair<int64_t, int64_t>> shapes;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t rows = 0, cols = 0;
    IMCAT_RETURN_IF_ERROR(in.Read(&rows));
    IMCAT_RETURN_IF_ERROR(in.Read(&cols));
    shapes.emplace_back(static_cast<int64_t>(rows),
                        static_cast<int64_t>(cols));
    // Overflow-safe bound before the multiply: the payload cannot exceed
    // the bytes left in the file.
    if (rows != 0 && cols > static_cast<uint64_t>(in.remaining()) /
                                sizeof(float) / rows) {
      return Status::DataLoss(path + ": truncated checkpoint");
    }
    // Checksum cannot be verified when skipping data; shapes only.
    IMCAT_RETURN_IF_ERROR(in.Skip(rows * cols * sizeof(float)));
  }
  return shapes;
}

}  // namespace imcat
