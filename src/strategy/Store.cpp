//===- Store.cpp - Durable on-disk campaign store -----------------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "strategy/Store.h"

#include "fuzz/Snapshot.h"
#include "strategy/BuildCache.h"
#include "support/Env.h"
#include "support/Io.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

namespace pathfuzz {
namespace strategy {

namespace fs = std::filesystem;

namespace {

constexpr uint32_t StoreFormatVersion = 1;
constexpr const char *ManifestName = "manifest.pfm";
constexpr const char *QuarantineDir = "quarantine";
constexpr const char *CkptPrefix = "ckpt-";
constexpr const char *CkptSuffix = ".pfsnap";

/// Read bound for any store file: checkpoints carry a whole corpus, but a
/// corrupt length must never drive a multi-gigabyte allocation.
constexpr size_t MaxStoreFileBytes = size_t(1) << 30;

struct CkptFile {
  uint64_t Seq = 0;
  fs::path Path;
};

/// ckpt-NNNN.pfsnap files in Dir, sorted by ascending sequence number.
/// Anything that doesn't parse strictly is not a checkpoint.
std::vector<CkptFile> listCheckpoints(const fs::path &Dir) {
  std::vector<CkptFile> Out;
  const std::string Pre = CkptPrefix, Suf = CkptSuffix;
  std::error_code Ec;
  for (fs::directory_iterator It(Dir, Ec), End; !Ec && It != End;
       It.increment(Ec)) {
    std::string Name = It->path().filename().string();
    if (Name.size() <= Pre.size() + Suf.size() ||
        Name.compare(0, Pre.size(), Pre) != 0 ||
        Name.compare(Name.size() - Suf.size(), Suf.size(), Suf) != 0)
      continue;
    CkptFile F;
    if (!parseU64(Name.substr(Pre.size(), Name.size() - Pre.size() - Suf.size()),
                  F.Seq))
      continue;
    F.Path = It->path();
    Out.push_back(std::move(F));
  }
  std::sort(Out.begin(), Out.end(),
            [](const CkptFile &A, const CkptFile &B) { return A.Seq < B.Seq; });
  return Out;
}

std::string ckptFileName(uint64_t Seq) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%s%04llu%s", CkptPrefix,
                static_cast<unsigned long long>(Seq), CkptSuffix);
  return Buf;
}

/// Move a torn/corrupt file into <dir>/quarantine/ (removed outright when
/// even the rename fails, so the recovery scan always makes progress).
void quarantineFile(const fs::path &File) {
  std::error_code Ec;
  fs::path QDir = File.parent_path() / QuarantineDir;
  fs::create_directories(QDir, Ec);
  fs::rename(File, QDir / File.filename(), Ec);
  if (Ec)
    fs::remove(File, Ec);
}

/// Everything a manifest records.
struct ManifestData {
  std::string Subject;
  CampaignOptions Opts; ///< fingerprint fields only
  bool Done = false;
  CampaignResult Final;
};

bool readManifest(const fs::path &Path, ManifestData &M, std::string &Err) {
  std::vector<uint8_t> Raw, Payload;
  if (!io::readFileBounded(Path.string(), MaxStoreFileBytes, Raw, &Err))
    return false;
  std::string VersionErr;
  if (!fuzz::openSnapshot(Raw, Payload, &VersionErr)) {
    Err = VersionErr.empty() ? "corrupt manifest envelope"
                             : "unsupported manifest: " + VersionErr;
    return false;
  }
  ByteReader Rd(Payload);
  if (Rd.u32() != StoreFormatVersion) {
    Err = "unsupported store format version";
    return false;
  }
  M.Subject = Rd.str();
  if (!readOptionsFingerprint(Rd, M.Opts)) {
    Err = "corrupt manifest fingerprint";
    return false;
  }
  uint8_t Status = Rd.u8();
  if (Status == 1) {
    std::vector<uint8_t> Blob = Rd.blob();
    if (!Rd.done() || !deserializeCampaignResult(Blob, M.Final)) {
      Err = "corrupt manifest result";
      return false;
    }
    M.Done = true;
  } else if (Status != 0 || !Rd.done()) {
    Err = "corrupt manifest payload";
    return false;
  }
  return true;
}

} // namespace

const char *storeStateName(StoreState S) {
  switch (S) {
  case StoreState::Fresh:
    return "fresh";
  case StoreState::Resumable:
    return "resumable";
  case StoreState::Done:
    return "done";
  case StoreState::Corrupt:
    return "corrupt";
  }
  return "<bad-state>";
}

std::unique_ptr<CampaignStore>
CampaignStore::open(const std::string &Dir, const std::string &SubjectName,
                    const CampaignOptions &Opts, std::string *Err) {
  auto Fail = [&](std::string Msg) {
    if (Err)
      *Err = std::move(Msg);
    return std::unique_ptr<CampaignStore>();
  };
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  if (Ec)
    return Fail("cannot create store directory " + Dir + ": " + Ec.message());

  std::unique_ptr<CampaignStore> S(new CampaignStore());
  S->Dir = Dir;
  S->KeepLast = std::max<uint32_t>(1, Opts.StoreKeepLast);

  // Sweep temporaries a kill mid-write left behind. They never carry
  // recovery state (atomicWriteFile publishes only via rename).
  const std::string Suf = io::tmpSuffix();
  for (fs::directory_iterator It(Dir, Ec), End; !Ec && It != End;
       It.increment(Ec)) {
    std::string Name = It->path().filename().string();
    if (Name.size() > Suf.size() &&
        Name.compare(Name.size() - Suf.size(), Suf.size(), Suf) == 0) {
      std::error_code Rm;
      fs::remove(It->path(), Rm);
    }
  }

  // The manifest prefix (format version, subject, fingerprint) is fixed
  // for the campaign's lifetime; markDone() appends status + result.
  ByteWriter P;
  P.u32(StoreFormatVersion);
  P.str(SubjectName);
  writeOptionsFingerprint(P, Opts);
  S->ManifestPrefix = P.take();

  fs::path Manifest = fs::path(Dir) / ManifestName;
  if (fs::exists(Manifest, Ec)) {
    ManifestData M;
    std::string MErr;
    if (!readManifest(Manifest, M, MErr))
      return Fail("store " + Dir + ": " + MErr);
    // A mismatched manifest is a hard error, never auto-overwritten:
    // silently resuming (or restarting) someone else's campaign would
    // corrupt both campaigns' results.
    if (M.Subject != SubjectName)
      return Fail("store " + Dir + " pins subject '" + M.Subject +
                  "', not '" + SubjectName + "'");
    if (fingerprintBytes(M.Opts) != fingerprintBytes(Opts))
      return Fail("store " + Dir +
                  " was created with different campaign options "
                  "(fingerprint mismatch)");
    S->Done = M.Done;
    S->Final = std::move(M.Final);
  } else {
    ByteWriter W;
    W.bytes(S->ManifestPrefix.data(), S->ManifestPrefix.size());
    W.u8(0); // running
    std::string WErr;
    if (!io::atomicWriteFile(Manifest.string(), fuzz::sealSnapshot(W.take()),
                             &WErr))
      return Fail("cannot write manifest: " + WErr);
  }

  for (const CkptFile &F : listCheckpoints(Dir))
    S->NextSeq = std::max(S->NextSeq, F.Seq + 1);
  return S;
}

bool CampaignStore::writeCheckpoint(const std::vector<uint8_t> &Blob,
                                    std::string *Err) {
  fs::path Path = fs::path(Dir) / ckptFileName(NextSeq);
  if (!io::atomicWriteFile(Path.string(), Blob, Err))
    return false;
  ++NextSeq;
  *Metrics.counter("store.checkpoint.written") += 1;
  *Metrics.counter("store.checkpoint.bytes") += Blob.size();

  // Retention: drop the oldest files beyond the window. Unlink order is
  // oldest-first, so a kill mid-rotation still leaves the newest intact.
  std::vector<CkptFile> Files = listCheckpoints(Dir);
  for (size_t I = 0; I + KeepLast < Files.size(); ++I) {
    std::error_code Ec;
    fs::remove(Files[I].Path, Ec);
  }
  return true;
}

bool CampaignStore::recover(std::vector<uint8_t> &Blob) {
  LastRecovered.clear();
  std::vector<CkptFile> Files = listCheckpoints(Dir);
  for (auto It = Files.rbegin(); It != Files.rend(); ++It) {
    std::vector<uint8_t> Raw, Payload;
    std::string Err;
    if (io::readFileBounded(It->Path.string(), MaxStoreFileBytes, Raw, &Err) &&
        fuzz::openSnapshot(Raw, Payload)) {
      Blob = std::move(Raw);
      LastRecovered = It->Path.string();
      *Metrics.counter("store.checkpoint.recovered") += 1;
      return true;
    }
    // Torn or corrupt: move it aside and keep scanning older files.
    quarantineFile(It->Path);
    *Metrics.counter("store.checkpoint.quarantined") += 1;
  }
  return false;
}

void CampaignStore::quarantineRecovered() {
  if (LastRecovered.empty())
    return;
  quarantineFile(LastRecovered);
  *Metrics.counter("store.checkpoint.quarantined") += 1;
  LastRecovered.clear();
}

bool CampaignStore::markDone(const CampaignResult &R, std::string *Err) {
  ByteWriter W;
  W.bytes(ManifestPrefix.data(), ManifestPrefix.size());
  W.u8(1); // done
  W.blob(serializeCampaignResult(R));
  fs::path Manifest = fs::path(Dir) / ManifestName;
  if (!io::atomicWriteFile(Manifest.string(), fuzz::sealSnapshot(W.take()),
                           Err))
    return false;
  Done = true;
  Final = R;
  return true;
}

uint64_t CampaignStore::checkpointsOnDisk() const {
  return listCheckpoints(Dir).size();
}

std::vector<StoreScanEntry> scanStoreRoot(const std::string &Root) {
  std::vector<StoreScanEntry> Entries;
  std::error_code Ec;
  std::vector<fs::path> Dirs;
  for (fs::directory_iterator It(Root, Ec), End; !Ec && It != End;
       It.increment(Ec)) {
    if (It->is_directory(Ec))
      Dirs.push_back(It->path());
  }
  std::sort(Dirs.begin(), Dirs.end());

  for (const fs::path &D : Dirs) {
    std::error_code E2;
    bool HasManifest = fs::exists(D / ManifestName, E2);
    std::vector<CkptFile> Ckpts = listCheckpoints(D);
    if (!HasManifest && Ckpts.empty())
      continue; // not a campaign directory

    StoreScanEntry E;
    E.Dir = D.string();
    E.CheckpointFiles = Ckpts.size();
    if (!HasManifest) {
      E.Error = "missing manifest";
      Entries.push_back(std::move(E));
      continue;
    }
    ManifestData M;
    std::string MErr;
    if (!readManifest(D / ManifestName, M, MErr)) {
      E.Error = MErr;
      Entries.push_back(std::move(E));
      continue;
    }
    E.Subject = M.Subject;
    E.Opts = M.Opts;
    if (M.Done) {
      E.State = StoreState::Done;
      E.Final = std::move(M.Final);
    } else {
      // Non-destructive probe: resumable iff some checkpoint's envelope
      // validates (recovery proper quarantines; a scan only reports).
      E.State = StoreState::Fresh;
      for (auto It = Ckpts.rbegin(); It != Ckpts.rend(); ++It) {
        std::vector<uint8_t> Raw, Payload;
        if (io::readFileBounded(It->Path.string(), MaxStoreFileBytes, Raw) &&
            fuzz::openSnapshot(Raw, Payload)) {
          E.State = StoreState::Resumable;
          break;
        }
      }
    }
    Entries.push_back(std::move(E));
  }
  return Entries;
}

CampaignResult runStoredCampaign(SubjectBuild &B, const CampaignOptions &Opts,
                                 CampaignError *Err) {
  if (Opts.StoreDir.empty()) {
    setCampaignError(Err,
                     "runStoredCampaign requires CampaignOptions::StoreDir");
    return {};
  }
  std::string OpenErr;
  std::unique_ptr<CampaignStore> Store =
      CampaignStore::open(Opts.StoreDir, B.subject().Name, Opts, &OpenErr);
  if (!Store) {
    setCampaignError(Err, std::move(OpenErr));
    return {};
  }
  // Finished in an earlier life: the manifest carries the byte-identical
  // result, so return it without re-executing (no Trace is attached —
  // telemetry is exported by the run that produced it).
  if (Store->done())
    return Store->finalResult();

  CampaignOptions Run = Opts;
  Run.StoreDir.clear(); // re-entering runCampaign must not recurse
  if (!Run.CheckpointInterval)
    Run.CheckpointInterval = std::max<uint64_t>(1, Opts.ExecBudget / 8);
  auto UserSink = Opts.CheckpointSink;
  CampaignStore *SP = Store.get();
  // The store persists before any user sink runs: when a sink-side crash
  // (or the kill-torture harness) takes the process down, the checkpoint
  // that triggered it is already on disk.
  Run.CheckpointSink = [SP, UserSink](const std::vector<uint8_t> &Blob) {
    std::string WErr;
    if (!SP->writeCheckpoint(Blob, &WErr))
      std::fprintf(stderr,
                   "pathfuzz: warning: checkpoint not persisted: %s\n",
                   WErr.c_str());
    if (UserSink)
      UserSink(Blob);
  };

  CampaignResult R;
  bool Ran = false;
  std::vector<uint8_t> Ckpt;
  while (SP->recover(Ckpt)) {
    CampaignError E;
    R = resumeCampaign(B, Run, Ckpt, &E);
    if (!E.Failed) {
      Ran = true;
      break;
    }
    // A preemption is progress, not failure: the checkpoint it stopped at
    // is already persisted (the store sink runs first), so propagate the
    // partial result without marking done — the next runStoredCampaign
    // over this directory resumes exactly where this one stopped.
    if (E.Preempted) {
      if (Err)
        *Err = E;
      return R;
    }
    // Build faults and watchdog trips are campaign failures, not
    // checkpoint damage — propagate them (the batch runner retries
    // transients against the same store).
    if (E.Watchdog || !E.FaultSite.empty()) {
      if (Err)
        *Err = E;
      return {};
    }
    // The envelope validated but the payload didn't restore: corruption
    // only the drivers can detect. Quarantine it and fall back.
    SP->quarantineRecovered();
  }
  if (!Ran) {
    CampaignError E;
    R = runCampaign(B, Run, &E);
    if (E.Preempted) {
      if (Err)
        *Err = E;
      return R; // partial; checkpoint persisted, not done
    }
    if (E.Failed) {
      if (Err)
        *Err = E;
      return {};
    }
  }

  std::string DoneErr;
  if (!SP->markDone(R, &DoneErr))
    std::fprintf(stderr,
                 "pathfuzz: warning: final result not persisted: %s\n",
                 DoneErr.c_str());

  // Fold the store's accounting into the trace as its own instance, the
  // same shape the engine-local vm.* families use.
  if (R.Trace && !SP->metrics().empty()) {
    telemetry::InstanceRecord Rec;
    Rec.Label = "store";
    Rec.Metrics = SP->metrics();
    R.Trace->Instances.push_back(std::move(Rec));
  }
  return R;
}

CampaignResult runStoredCampaign(const Subject &S, const CampaignOptions &Opts,
                                 CampaignError *Err) {
  SubjectBuild B(S);
  return runStoredCampaign(B, Opts, Err);
}

} // namespace strategy
} // namespace pathfuzz
