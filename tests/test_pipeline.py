import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from neurospeaker import core, dsp, ica, kpca, nn, pipeline
from neurospeaker.core import make_rng
from neurospeaker.errors import DegenerateInputError, DimensionError, InputError
from neurospeaker.features import FeatureSequence, Modality, compute_feature_stats
from neurospeaker.synth import SynthSpec, generate_synthetic

SMALL_SPEC = SynthSpec(
    n_speakers=4, utterances_per_speaker=6, duration_s=1.0,
    separability=1.0, noise_db=-40.0, seed=7,
)


@pytest.fixture(scope="module")
def small_corpus():
    utts = generate_synthetic(SMALL_SPEC)
    cleaned, report_rows = pipeline.preprocess_eeg(utts, seed=SMALL_SPEC.seed)
    features = pipeline.extract_features(cleaned)
    speakers = {u.utterance_id: u.speaker for u in utts}
    partition = pipeline.split_utterances(speakers, SMALL_SPEC.seed)
    train_ids = [i for i, tag in partition.items() if tag == "train"]
    pipeline.reduce_eeg(
        features, train_ids, pipeline.KpcaConfig(max_fit_frames=600), seed=SMALL_SPEC.seed
    )
    return utts, cleaned, features, speakers, report_rows


class TestPreprocess:
    def test_cleaned_shapes_match(self, small_corpus):
        utts, cleaned, *_ = small_corpus
        assert len(cleaned) == len(utts)
        for raw, clean in zip(utts, cleaned):
            assert clean.eeg.samples.shape == raw.eeg.samples.shape
            assert np.all(np.isfinite(clean.eeg.samples))

    def test_report_covers_every_component(self, small_corpus):
        utts, _, _, _, rows = small_corpus
        assert len(rows) == len(utts) * 31


class TestRecordingFiltering:
    def test_each_recording_filtered_alone_equals_single_utterance_runs(self, monkeypatch):
        """A mixed-length corpus with more than 1,024 rows of one length (the
        block size the filter once stacked recordings into): each recording
        is filtered on its own, in one call, and every cleaned record and
        report row equals its own single-utterance run, in corpus order."""
        long = generate_synthetic(SynthSpec(n_speakers=2, utterances_per_speaker=18, duration_s=0.3, seed=4))
        short = generate_synthetic(SynthSpec(n_speakers=2, utterances_per_speaker=2, duration_s=0.25, seed=5))
        short = [replace(u, utterance_id=f"short{u.utterance_id}") for u in short]
        corpus = long[:3] + short[:2] + long[3:] + short[2:]
        assert sum(u.eeg.channels for u in long) > 1024

        rows_filtered = []
        apply_filter = dsp.apply_filter

        def spy(cascade, signal):
            rows_filtered.append(signal.channels)
            return apply_filter(cascade, signal)

        monkeypatch.setattr(dsp, "apply_filter", spy)
        cleaned, report_rows = pipeline.preprocess_eeg(corpus, seed=4)
        # one band-pass + notch pass per recording, of its 31 channels
        assert rows_filtered == [31] * len(corpus)

        expected_rows = []
        for utt, clean in zip(corpus, cleaned, strict=True):
            (alone,), rows = pipeline.preprocess_eeg([utt], seed=4)
            assert clean.utterance_id == utt.utterance_id
            np.testing.assert_array_equal(clean.eeg.samples, alone.eeg.samples)
            expected_rows += rows
        assert report_rows == expected_rows


class TestUtteranceMap:
    """ICA cleaning, feature extraction and the KPCA projection spread over
    worker threads give the bytes of one utterance after another."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_synthetic(SynthSpec(n_speakers=2, utterances_per_speaker=3, duration_s=0.5, seed=9))

    @staticmethod
    def _run(corpus, width, monkeypatch):
        """Cleaned utterances, report rows, features, and for every ICA fit
        whether it ran on the main thread and its iteration count."""
        fits = []
        fit_ica = ica.fit_ica
        # At width 2 each thread's first fit waits for the other thread's.
        started = threading.Barrier(width, timeout=60)
        waited = threading.local()

        def spy(*args, **kwargs):
            if not getattr(waited, "done", False):
                waited.done = True
                started.wait()
            model = fit_ica(*args, **kwargs)
            fits.append((threading.current_thread() is threading.main_thread(), model.n_iterations))
            return model

        with monkeypatch.context() as patch:
            patch.setattr(core, "_map_width", lambda: width)
            patch.setattr(ica, "fit_ica", spy)
            cleaned, rows = pipeline.preprocess_eeg(corpus, seed=9)
            return cleaned, rows, pipeline.extract_features(cleaned), fits

    def test_two_workers_equal_one_bit_for_bit(self, corpus, monkeypatch):
        cleaned1, rows1, feats1, fits1 = self._run(corpus, 1, monkeypatch)
        cleaned2, rows2, feats2, fits2 = self._run(corpus, 2, monkeypatch)
        assert all(on_main for on_main, _ in fits1)
        assert {on_main for on_main, _ in fits2} == {True, False}
        # Uneven fits finish out of corpus order on two workers.
        assert len({n for _, n in fits1}) > 1
        assert [u.utterance_id for u in cleaned2] == [u.utterance_id for u in corpus]
        for a, b in zip(cleaned1, cleaned2, strict=True):
            assert a.eeg.samples.tobytes() == b.eeg.samples.tobytes()
        assert rows2 == rows1
        assert list(feats2) == list(feats1)
        for utt_id, streams in feats1.items():
            for key in ("mfcc13", "eeg155"):
                assert streams[key].frames.tobytes() == feats2[utt_id][key].frames.tobytes()

    def test_first_failing_utterance_in_corpus_order_raises(self, corpus, monkeypatch):
        """The third and fourth utterances each have two identical channels;
        the third's message is raised at either width."""
        broken = list(corpus)
        for index, (a, b) in ((2, (4, 9)), (3, (1, 2))):
            samples = broken[index].eeg.samples.copy()
            samples[b] = samples[a]
            broken[index] = replace(broken[index], eeg=replace(broken[index].eeg, samples=samples))
        messages = []
        for width in (1, 2):
            monkeypatch.setattr(core, "_map_width", lambda: width)
            with pytest.raises(DegenerateInputError) as err:
                pipeline.preprocess_eeg(broken, seed=9)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert "'ch04' and 'ch09'" in messages[0]

    def test_first_failure_in_item_order_raises_after_a_later_one(self, monkeypatch):
        monkeypatch.setattr(core, "_map_width", lambda: 2)
        done = []

        def work(i):
            if i == 2:
                time.sleep(0.2)  # item 3 fails first, on the other thread
                raise ValueError("item 2")
            if i == 3:
                raise ValueError("item 3")
            done.append(i)
            return i

        with pytest.raises(ValueError, match="item 2"):
            core._ordered_map(work, list(range(8)))
        assert sorted(done) == [0, 1]  # nothing after the failure is taken
        assert core._ordered_map(lambda i: i * i, list(range(8))) == [i * i for i in range(8)]

    def test_item_0_runs_on_the_calling_thread(self, monkeypatch):
        """Items 0 and 1 each wait for the other to start, so they run on
        different threads; item 0 is the calling thread's."""
        monkeypatch.setattr(core, "_map_width", lambda: 2)
        both = threading.Barrier(2, timeout=60)

        def work(i):
            both.wait()
            return threading.current_thread()

        first, second = core._ordered_map(work, [0, 1])
        assert first is threading.main_thread()
        assert second is not threading.main_thread()

    def test_many_workers_keep_the_serial_order(self, monkeypatch):
        """Eight workers on 40 items with a short switch interval: every item
        runs once and the results keep item order."""
        ran = []

        def work(i):
            ran.append(i)
            time.sleep(0.001 * (i % 3))
            return i * i

        monkeypatch.setattr(core, "_map_width", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = core._ordered_map(work, list(range(40)))
        finally:
            sys.setswitchinterval(interval)
        assert results == [i * i for i in range(40)]
        assert sorted(ran) == list(range(40))

    @pytest.fixture(scope="class")
    def features(self, corpus):
        """EEG155 streams of the corpus and its training ids."""
        cleaned, _ = pipeline.preprocess_eeg(corpus, seed=9)
        features = pipeline.extract_features(cleaned)
        speakers = {u.utterance_id: u.speaker for u in corpus}
        partition = pipeline.split_utterances(speakers, seed=9)
        return features, [i for i, tag in partition.items() if tag == "train"]

    @staticmethod
    def _reduce(features, width, monkeypatch, fail=None):
        """reduce_eeg on a copy of ``features`` with the map at ``width``: the
        EEG30 streams, the model, and for every projection its input's
        SHA-256 and whether it ran on the main thread. At width 2 each
        thread's first projection waits for the other thread's. An input
        whose digest is a key of ``fail`` raises instead, after the delay
        its value gives."""
        feats, train_ids = features
        feats = {utt_id: dict(streams) for utt_id, streams in feats.items()}
        calls = []
        started = threading.Barrier(width, timeout=60)
        waited = threading.local()
        transform_frames = kpca.transform_frames

        def spy(model, x):
            if not getattr(waited, "done", False):
                waited.done = True
                started.wait()
            digest = hashlib.sha256(x.tobytes()).hexdigest()
            calls.append((digest, threading.current_thread() is threading.main_thread()))
            if digest in (fail or {}):
                time.sleep(fail[digest])
                raise DimensionError(f"projection {digest}")
            return transform_frames(model, x)

        with monkeypatch.context() as patch:
            patch.setattr(core, "_map_width", lambda: width)
            patch.setattr(kpca, "transform_frames", spy)
            model = pipeline.reduce_eeg(feats, train_ids, seed=9)
        return {utt_id: streams["eeg30"] for utt_id, streams in feats.items()}, model, calls

    def test_projections_on_two_workers_equal_one_bit_for_bit(self, features, monkeypatch):
        eeg30_1, model1, calls1 = self._reduce(features, 1, monkeypatch)
        eeg30_2, model2, calls2 = self._reduce(features, 2, monkeypatch)
        assert all(on_main for _, on_main in calls1)
        assert {on_main for _, on_main in calls2} == {True, False}
        assert sorted(d for d, _ in calls2) == sorted(d for d, _ in calls1)
        assert model2.alphas.tobytes() == model1.alphas.tobytes()
        assert list(eeg30_2) == list(eeg30_1) == list(features[0])
        for utt_id, seq in eeg30_1.items():
            assert seq.utterance_id == eeg30_2[utt_id].utterance_id == utt_id
            assert seq.frames.tobytes() == eeg30_2[utt_id].frames.tobytes()

    def test_first_failing_projection_in_corpus_order_raises(self, features, monkeypatch):
        """The third and fourth utterances fail, the fourth first at width 2;
        the third's error is raised at either width."""
        _, _, calls = self._reduce(features, 1, monkeypatch)
        digests = [d for d, _ in calls]
        fail = {digests[2]: 0.2, digests[3]: 0.0}
        for width in (1, 2):
            with pytest.raises(DimensionError, match=f"projection {digests[2]}"):
                self._reduce(features, width, monkeypatch, fail)

    BLAS_PROBE = """
import ctypes, json
import numpy as np
from scipy.linalg import cython_lapack

numpy_blas = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_openblas_get_num_threads64_
scipy_blas = ctypes.CDLL(cython_lapack.__file__).scipy_openblas_get_num_threads
before = [numpy_blas(), scipy_blas()]
from neurospeaker import core, kpca
after_import = [numpy_blas(), scipy_blas(), core._map_width(), core._usable_cpus()]
kpca.fit_kpca(np.random.default_rng(0).standard_normal((40, 5)), kpca.KernelSpec(), 3)
print(json.dumps([before, after_import, [numpy_blas(), scipy_blas()]]))
"""

    def test_import_pins_blas_whatever_the_environment_says(self):
        """A fresh interpreter whose environment asks for two BLAS threads:
        importing the package sets numpy's OpenBLAS to one thread, so the map
        is as wide as the usable CPUs, and one KPCA fit sets scipy's."""
        src = str(Path(pipeline.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"), "2"))
        done = subprocess.run(
            [sys.executable, "-c", self.BLAS_PROBE], env=env, capture_output=True, text=True, check=True
        )
        before, (numpy_threads, scipy_threads, width, cpus), after_fit = json.loads(done.stdout)
        if cpus >= 2:  # OpenBLAS takes no more threads than CPUs
            assert before == [2, 2]
        assert numpy_threads == 1
        assert scipy_threads == before[1]  # scipy's is left alone until the fit
        assert width == cpus == core._usable_cpus()
        assert after_fit == [1, 1]

    def test_without_the_thread_setter_the_map_is_serial(self, monkeypatch):
        """A BLAS that exports no scipy-openblas thread functions, such as
        MKL: the map runs on the calling thread alone and starts no thread,
        and the KPCA eigensolve still runs."""
        looked_up = []
        for module in (core, kpca):
            monkeypatch.setattr(module, "_pin_blas", lambda *lib: looked_up.append(lib))
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        assert core._map_width() == 1
        ran_on = core._ordered_map(lambda i: threading.current_thread(), list(range(4)))
        assert ran_on == [threading.main_thread()] * 4 and started == []

        a = make_rng(3).standard_normal((6, 6))
        a = a + a.T
        eigenvalues = kpca._dsyevd(np.asfortranarray(a))
        np.testing.assert_allclose(eigenvalues, np.linalg.eigvalsh(a), rtol=1e-12, atol=1e-12)
        from scipy.linalg import cython_lapack

        assert (cython_lapack.__file__, "") in looked_up


class TestExperimentSchedule:
    """With the map wider than 1, ``run_experiment`` trains the modalities
    that read no EEG30 beside the KPCA fit and the rest as soon as the fit
    is done, with the bytes, the order and the failure of the serial
    loop."""

    SPEC = SynthSpec(n_speakers=2, utterances_per_speaker=5, duration_s=0.5, seed=12)
    CONFIG = pipeline.TrainConfig(epochs=2, seed=12, tcn_filters=8, gru_hidden=8)
    KPCA = pipeline.KpcaConfig(max_fit_frames=200)
    DEFAULT = (Modality.MFCC13, Modality.EEG30, Modality.FUSED43)

    @classmethod
    def _run(cls, modalities, width, monkeypatch, fit_kpca=None, train=None):
        """run_experiment with the map at ``width``, and optionally
        ``kpca.fit_kpca`` and ``pipeline.train`` replaced by wrappers that
        take the original as their first argument."""
        with monkeypatch.context() as patch:
            patch.setattr(core, "_map_width", lambda: width)
            if fit_kpca is not None:
                original_fit = kpca.fit_kpca
                patch.setattr(kpca, "fit_kpca", lambda *a, **k: fit_kpca(original_fit, *a, **k))
            if train is not None:
                original_train = pipeline.train
                patch.setattr(pipeline, "train", lambda *a, **k: train(original_train, *a, **k))
            return pipeline.run_experiment(
                cls.SPEC, modalities=modalities, config=cls.CONFIG, kpca_config=cls.KPCA
            )

    @staticmethod
    def _modality(dataset):
        return dataset.items[0][0].modality

    @pytest.mark.parametrize("modalities", [DEFAULT, (Modality.FUSED43, Modality.MFCC13)])
    def test_two_workers_equal_one_bit_for_bit(self, modalities, monkeypatch):
        """The last two modalities train after the fit, each waiting for the
        other to start, so after the fit the main thread and one helper each
        train one."""
        threads = {}
        after_fit = threading.Barrier(2, timeout=60)

        def train(original, dataset, config):
            modality = self._modality(dataset)
            threads[modality] = threading.current_thread()
            if modality in modalities[-2:]:
                after_fit.wait()
            return original(dataset, config)

        one = self._run(modalities, 1, monkeypatch)
        two = self._run(modalities, 2, monkeypatch, train=train)
        last_two = {threads[m] for m in modalities[-2:]}
        assert len(last_two) == 2 and threading.main_thread() in last_two
        assert list(two.results) == list(two.reports) == list(one.results) == list(modalities)
        assert list(two.accuracies.items()) == list(one.accuracies.items())
        assert two.kpca_model.alphas.tobytes() == one.kpca_model.alphas.tobytes()
        for modality in modalities:
            a, b = one.results[modality], two.results[modality]
            assert a.curves == b.curves
            for (name_a, x), (name_b, y) in zip(a.params.named_arrays(), b.params.named_arrays(), strict=True):
                assert name_a == name_b and x.tobytes() == y.tobytes()
            assert a.stats.mean.tobytes() == b.stats.mean.tobytes()
            assert a.stats.std.tobytes() == b.stats.std.tobytes()
            ra, rb = one.reports[modality], two.reports[modality]
            assert ra.test_accuracy == rb.test_accuracy and ra.curves == rb.curves
            assert ra.confusion_matrix.tobytes() == rb.confusion_matrix.tobytes()

    def test_mfcc13_trains_during_the_fit(self, monkeypatch):
        """The fit and the MFCC13 training each wait for the other to start,
        so the run ends only if the two overlap."""
        both = threading.Barrier(2, timeout=60)
        fit_threads, mfcc_threads = [], []

        def fit_kpca(original, *args, **kwargs):
            fit_threads.append(threading.current_thread())
            both.wait()
            return original(*args, **kwargs)

        def train(original, dataset, config):
            if self._modality(dataset) is Modality.MFCC13:
                mfcc_threads.append(threading.current_thread())
                both.wait()
            return original(dataset, config)

        self._run(self.DEFAULT, 2, monkeypatch, fit_kpca=fit_kpca, train=train)
        assert fit_threads == [threading.main_thread()]
        assert len(mfcc_threads) == 1 and mfcc_threads[0] is not threading.main_thread()

    @classmethod
    def _held_out_ids(cls):
        """The val/test utterance ids of the run, in corpus order."""
        speakers = {u.utterance_id: u.speaker for u in generate_synthetic(cls.SPEC)}
        partition = pipeline.split_utterances(speakers, cls.CONFIG.seed)
        return [i for i in speakers if partition[i] != "train"]

    def test_held_out_utterances_are_cleaned_during_the_fit(self, monkeypatch):
        """The fit and the cleaning of the first val/test utterance each wait
        for the other to start, so the run ends only if the two overlap."""
        first = self._held_out_ids()[0]
        both = threading.Barrier(2, timeout=60)
        fit_threads = []
        clean_utterance = pipeline._clean_utterance

        def clean(utt, *args):
            if utt.utterance_id == first:
                both.wait()
            return clean_utterance(utt, *args)

        def fit_kpca(original, *args, **kwargs):
            fit_threads.append(threading.current_thread())
            both.wait()
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, "_clean_utterance", clean)
        result = self._run(self.DEFAULT, 2, monkeypatch, fit_kpca=fit_kpca)
        assert fit_threads == [threading.main_thread()]
        assert list(result.results) == list(self.DEFAULT)

    def test_failure_cleaning_a_held_out_utterance_raises(self, monkeypatch):
        """Cleaning the first val/test utterance fails: that error is raised
        at either width, and no training starts without its streams."""
        first = self._held_out_ids()[0]
        clean_utterance = pipeline._clean_utterance

        def clean(utt, *args):
            if utt.utterance_id == first:
                raise DegenerateInputError(f"failed: {first}")
            return clean_utterance(utt, *args)

        monkeypatch.setattr(pipeline, "_clean_utterance", clean)
        for width in (1, 2):
            started = []

            def train(original, dataset, config):
                started.append(self._modality(dataset))
                return original(dataset, config)

            with pytest.raises(DegenerateInputError) as err:
                self._run(self.DEFAULT, width, monkeypatch, train=train)
            assert str(err.value) == f"failed: {first}"
            assert started == []

    def test_all_modalities_train_at_once_at_width_4(self, monkeypatch):
        """The three trainings each wait for the other two to start, so the
        run ends only if EEG30 and FUSED43 start once the fit is done, while
        MFCC13, which started beside the fit, still trains."""
        all_three = threading.Barrier(3, timeout=60)
        threads = {}

        def train(original, dataset, config):
            threads[self._modality(dataset)] = threading.current_thread()
            all_three.wait()
            return original(dataset, config)

        result = self._run(self.DEFAULT, 4, monkeypatch, train=train)
        assert len(set(threads.values())) == 3
        assert threading.main_thread() not in threads.values()
        assert list(result.results) == list(self.DEFAULT)

    @pytest.mark.parametrize("modalities, failing, raised, trained", [
        # the fit fails after MFCC13, beside it, has failed
        (DEFAULT, {"kpca": 0.3, Modality.MFCC13: 0.0}, "kpca", ([], [Modality.MFCC13])),
        # both start after the fit; MFCC13 fails first, FUSED43, before it in
        # serial order, fails later
        ((Modality.FUSED43, Modality.MFCC13), {Modality.FUSED43: 0.3, Modality.MFCC13: 0.0},
         Modality.FUSED43, ([Modality.FUSED43], [Modality.FUSED43, Modality.MFCC13])),
        # MFCC13 fails; nothing after it in serial order is trained
        (DEFAULT, {Modality.MFCC13: 0.0, Modality.FUSED43: 0.0}, Modality.MFCC13,
         ([Modality.MFCC13], [Modality.MFCC13])),
    ], ids=["the fit before MFCC13", "FUSED43 before MFCC13", "nothing after MFCC13"])
    def test_first_failure_in_serial_order_raises(self, modalities, failing, raised, trained, monkeypatch):
        """``failing`` maps "kpca" or a modality to the delay before it
        raises; the failure first in serial order (the fit, then the
        modalities in order) is the one raised, at either width. ``trained``
        lists the modalities whose training starts at width 1 and at 2, in
        any order."""
        for width, expected in zip((1, 2), trained):
            started = []

            def fit_kpca(original, *args, **kwargs):
                if "kpca" in failing:
                    time.sleep(failing["kpca"])
                    raise DimensionError("failed: kpca")
                return original(*args, **kwargs)

            def train(original, dataset, config):
                modality = self._modality(dataset)
                started.append(modality)
                if modality in failing:
                    time.sleep(failing[modality])
                    raise DimensionError(f"failed: {modality}")
                return original(dataset, config)

            with pytest.raises(DimensionError) as err:
                self._run(modalities, width, monkeypatch, fit_kpca=fit_kpca, train=train)
            assert str(err.value) == f"failed: {raised}"
            assert Counter(started) == Counter(expected)

    def test_width_one_starts_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def spy(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        result = self._run(self.DEFAULT, 1, monkeypatch)
        assert started == []
        assert list(result.results) == list(self.DEFAULT)


class TestFeatureStage:
    def test_streams_present_with_expected_dims(self, small_corpus):
        _, _, features, _, _ = small_corpus
        for streams in features.values():
            assert streams["mfcc13"].dim == 13
            assert streams["eeg155"].dim == 155
            assert streams["eeg30"].dim == 30

    def test_fused_assembly(self, small_corpus):
        _, _, features, speakers, _ = small_corpus
        dataset = pipeline.assemble_dataset(features, speakers, Modality.FUSED43, seed=7)
        seq = dataset.items[0][0]
        assert seq.modality is Modality.FUSED43
        assert seq.dim == 43
        eeg_frames = features[seq.utterance_id]["eeg30"].n_frames
        assert seq.n_frames == eeg_frames  # EEG stream is the shorter one

    def test_split_is_modality_independent(self, small_corpus):
        _, _, features, speakers, _ = small_corpus
        a = pipeline.assemble_dataset(features, speakers, Modality.MFCC13, seed=7)
        b = pipeline.assemble_dataset(features, speakers, Modality.FUSED43, seed=7)
        assert a.partition == b.partition

    @pytest.mark.parametrize("modality", list(Modality))
    def test_one_split_serves_kpca_and_every_modality(self, small_corpus, modality):
        _, _, features, speakers, _ = small_corpus
        partition = pipeline.split_utterances(speakers, seed=7)
        dataset = pipeline.assemble_dataset(features, speakers, modality, seed=7)
        for tag in ("train", "val", "test"):
            ids = [seq.utterance_id for seq, _ in dataset.subset(tag)]
            assert ids == [i for i, t in partition.items() if t == tag]


class TestDimensionContracts:
    def test_reported_settings_pass(self):
        pipeline.check_dimension_contracts(4)
        pipeline.check_dimension_contracts(8)

    def test_single_speaker_rejected(self):
        with pytest.raises(DimensionError):
            pipeline.check_dimension_contracts(1)


class TestBatching:
    def test_batch_count_formula(self, monkeypatch):
        sizes = []
        forward = nn.forward_batch

        def spy(params, x, lengths, labels=None):
            sizes.append(x.shape[0])
            return forward(params, x, lengths, labels)

        monkeypatch.setattr(nn, "forward_batch", spy)
        params = nn.init_classifier(13, 2, make_rng(0), tcn_filters=2, gru_hidden=2)
        seq = FeatureSequence(np.zeros((2, 13), dtype=np.float32), Modality.MFCC13, "u")
        for n, batch_size, expected in [(101, 100, [100, 1]), (100, 100, [100]), (7, 3, [3, 3, 1])]:
            sizes.clear()
            assert pipeline.predict(params, [(seq, 0)] * n, batch_size).shape == (n,)
            assert sizes == expected  # ceil(n / batch_size) batches; the last carries the rest


class TestTrainConfig:
    def test_epoch_defaults_follow_speaker_count(self):
        config = pipeline.TrainConfig()
        assert config.resolve_epochs(4) == 300
        assert config.resolve_epochs(8) == 500
        assert pipeline.TrainConfig(epochs=12).resolve_epochs(8) == 12

    def test_nonpositive_epochs_rejected(self):
        with pytest.raises(InputError):
            pipeline.TrainConfig(epochs=0)


class TestTraining:
    def test_learns_separable_corpus(self, small_corpus):
        _, _, features, speakers, _ = small_corpus
        dataset = pipeline.assemble_dataset(features, speakers, Modality.FUSED43, seed=7)
        result = pipeline.train(dataset, pipeline.TrainConfig(epochs=30, seed=7))
        assert result.curves[-1][1] >= 0.99  # final train accuracy
        assert result.curves[-1][1] >= result.curves[0][1]
        report = pipeline.evaluate(result.params, dataset, result.stats, result.curves)
        assert report.test_accuracy >= 0.5
        assert report.confusion_matrix.sum() == len(dataset.subset("test"))
        assert np.trace(report.confusion_matrix) == round(
            report.test_accuracy * report.n_test
        )

    def test_two_runs_same_seed_identical_curves(self, small_corpus):
        _, _, features, speakers, _ = small_corpus
        dataset = pipeline.assemble_dataset(features, speakers, Modality.MFCC13, seed=7)
        config = pipeline.TrainConfig(epochs=5, seed=7)
        a = pipeline.train(dataset, config)
        b = pipeline.train(dataset, config)
        assert a.curves == b.curves
        for (_, x), (_, y) in zip(a.params.named_arrays(), b.params.named_arrays()):
            np.testing.assert_array_equal(x, y)

    def test_result_carries_the_training_statistics(self, small_corpus):
        _, _, features, speakers, _ = small_corpus
        dataset = pipeline.assemble_dataset(features, speakers, Modality.EEG30, seed=7)
        result = pipeline.train(dataset, pipeline.TrainConfig(epochs=1, seed=7))
        expected = compute_feature_stats([s for s, _ in dataset.subset("train")])
        assert result.stats.modality is Modality.EEG30
        np.testing.assert_array_equal(result.stats.mean, expected.mean)
        np.testing.assert_array_equal(result.stats.std, expected.std)

    def test_evaluate_rejects_speaker_count_mismatch(self, small_corpus):
        _, _, features, speakers, _ = small_corpus
        dataset = pipeline.assemble_dataset(features, speakers, Modality.MFCC13, seed=7)
        from neurospeaker import nn
        from neurospeaker.core import make_rng

        wrong = nn.init_classifier(13, 8, make_rng(0), tcn_filters=4, gru_hidden=4)
        stats = compute_feature_stats([s for s, _ in dataset.subset("train")])
        with pytest.raises(DimensionError):
            pipeline.evaluate(wrong, dataset, stats)


class TestSplitIsolation:
    def test_duplicate_utterance_across_partitions_rejected(self):
        frames = np.zeros((5, 13), dtype=np.float32)
        items = [
            (FeatureSequence(frames, Modality.MFCC13, "dup"), 0),
            (FeatureSequence(frames, Modality.MFCC13, "dup"), 1),
            (FeatureSequence(frames, Modality.MFCC13, "ok"), 1),
        ]
        from neurospeaker.core import LabeledDataset

        with pytest.raises(InputError, match="dup"):
            LabeledDataset(items, 2, ("train", "val", "train"))


class TestComparisonExperiment:
    def test_clean_audio_fusion_keeps_pace_with_best_modality(self):
        spec = SynthSpec(
            n_speakers=4, utterances_per_speaker=10, duration_s=0.8,
            separability=1.0, noise_db=-40.0, seed=5,
        )
        result = pipeline.run_experiment(
            spec,
            config=pipeline.TrainConfig(epochs=40, seed=5),
            kpca_config=pipeline.KpcaConfig(max_fit_frames=1000),
        )
        acc = result.accuracies
        assert set(acc) == {"MFCC", "EEG", "MFCC+EEG"}
        assert acc["MFCC+EEG"] >= max(acc["MFCC"], acc["EEG"]) - 0.02


class TestChanceLevel:
    def test_unseparable_corpus_stays_at_chance(self):
        # separability 0: per-speaker accuracy cannot beat chance; verified
        # over three seeds at reduced scale
        accs = []
        for seed in (101, 202, 303):
            spec = SynthSpec(
                n_speakers=4, utterances_per_speaker=12, duration_s=0.6,
                separability=0.0, noise_db=-40.0, seed=seed,
            )
            result = pipeline.run_experiment(
                spec,
                modalities=(Modality.FUSED43,),
                config=pipeline.TrainConfig(epochs=10, seed=seed),
                kpca_config=pipeline.KpcaConfig(max_fit_frames=500),
            )
            accs.append(result.reports[Modality.FUSED43].test_accuracy)
        assert abs(float(np.mean(accs)) - 0.25) <= 0.1
